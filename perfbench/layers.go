package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/dws"
	"dwst/internal/event"
	"dwst/internal/mpisim"
	"dwst/internal/p2pmatch"
	"dwst/internal/report"
	"dwst/internal/tbon"
	"dwst/internal/trace"
	"dwst/internal/waitstate"
	"dwst/internal/wfg"
	"dwst/mpi"
	"dwst/must"
)

// Layer drivers: each times exported functions of one layer on inputs
// captured once during set-up, so a layer's cost is measured apart from the
// rest of the tool. They run only in traced runs.

// driverReps is how many times each driver repeats its pass; the reported
// figure is the median pass.
const driverReps = 5

// recordStream runs the workload's program once in the simulator with a
// recording sink and returns the event stream a tool would have received,
// in the order the ranks emitted it. A deadlocking program is ended by the
// simulator's hang watchdog after every rank has blocked, so its stream
// ends with the calls the ranks hang in (finalState checks that it does).
func recordStream(w *workload) ([]event.Event, error) {
	hang := 2 * time.Second // mpi.Run's default: a clean program never trips it
	if w.deadlock {
		hang = 100 * time.Millisecond
	}
	var mu sync.Mutex
	var stream []event.Event
	sink := event.Func(func(ev event.Event) {
		mu.Lock()
		stream = append(stream, ev)
		mu.Unlock()
	})
	world := mpisim.NewWorld(mpisim.Config{Procs: w.procs, Sink: sink, HangTimeout: hang})
	err := world.Run(func(p *mpisim.Proc) { w.prog(mpi.NewProc(p)) })
	if w.deadlock && errors.Is(err, mpisim.ErrHang) {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", w.name, err)
	}
	return stream, nil
}

// streamRank is the rank whose stream an event belongs to.
func streamRank(ev event.Event) int {
	if ev.Type == event.Enter {
		return ev.Op.Proc
	}
	return ev.Proc
}

// replayMatch feeds the stream's point-to-point operations through one
// p2pmatch.Engine, the way first-layer nodes feed theirs, and returns how
// many engine calls it made and how many matches came out.
func replayMatch(stream []event.Event) (calls, matches int) {
	e := p2pmatch.NewEngine()
	for _, ev := range stream {
		switch ev.Type {
		case event.Enter:
			op := ev.Op
			switch k := op.Kind; {
			case k.IsSend():
				e.AddSend(p2pmatch.SendInfo{Proc: op.Proc, TS: op.TS, Src: op.SelfGroup,
					Dest: op.PeerWorld, Tag: op.Tag, Comm: op.Comm, Kind: k})
				calls++
			case k.IsRecv() && k != trace.Iprobe:
				e.AddRecv(p2pmatch.RecvInfo{Proc: op.Proc, TS: op.TS, Src: op.Peer,
					Tag: op.Tag, Comm: op.Comm, Probe: k.IsProbe()})
				calls++
			}
		case event.Status:
			e.Resolve(ev.Proc, ev.TS, ev.Src)
			calls++
		}
	}
	return calls, e.Emitted()
}

// wantMatches is the number of matches a correct engine emits on the
// workload's stream: every receive matches, except the storm's final
// wildcard receives, which have no sender.
func wantMatches(w *workload, stream []event.Event) int {
	n := 0
	for _, ev := range stream {
		if ev.Type == event.Enter && ev.Op.Kind.IsRecv() && ev.Op.Kind != trace.Iprobe {
			n++
		}
	}
	if w.deadlock {
		n -= w.procs
	}
	return n
}

// forwarder is a tbon.Handler that forwards every rank event up the tree
// and counts arrivals at the root: the tree's transport cost with no tool
// logic on top.
type forwarder struct {
	node  *tbon.Node
	got   *atomic.Int64
	total int64
	done  chan struct{}
}

func (f *forwarder) FromRank(_ int, ev any)              { f.node.SendUp(ev) }
func (f *forwarder) FromRankEvent(_ int, ev event.Event) { f.node.SendUp(ev) }
func (f *forwarder) FromParent(any)                      {}
func (f *forwarder) FromPeer(int, any)                   {}
func (f *forwarder) Control(any)                         {}

func (f *forwarder) FromChild(_ int, msg any) {
	if !f.node.IsRoot() {
		f.node.SendUp(msg)
		return
	}
	if f.got.Add(1) == f.total {
		close(f.done)
	}
}

// replayTree pushes the stream through a forwarding tbon.Tree configured
// like the tool's (fan-in 4, batching, default memory budget): set-up,
// transit of every event from intake to the root, and teardown each get a
// span under parent.
func replayTree(tr *tracer, op, parent int, procs int, stream []event.Event) error {
	var tree *tbon.Tree
	got := new(atomic.Int64)
	done := make(chan struct{})
	tr.do(op, parent, "tbon.start", func(int) {
		tree = tbon.New(tbon.Config{Leaves: procs, FanIn: 4, Batch: true, MemBudget: must.DefaultMemBudget})
		tree.Start(func(n *tbon.Node) tbon.Handler {
			return &forwarder{node: n, got: got, total: int64(len(stream)), done: done}
		})
	})
	var err error
	tr.do(op, parent, "tbon.transit", func(int) {
		for _, ev := range stream {
			if err = tree.InjectEvent(streamRank(ev), ev); err != nil {
				return
			}
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			err = fmt.Errorf("tbon replay: %d of %d events reached the root", got.Load(), len(stream))
		}
	})
	tr.do(op, parent, "tbon.stop", func(int) { tree.Stop() })
	return err
}

// finalState derives the wait-for graph and report entries of the state the
// stream ends in: ranks that sent Done are finished; every other rank hangs
// in its last call, which for this benchmark's programs is a wildcard
// receive on the world communicator — an OR wait on every other rank.
// conds are the tool's own descriptions of those waits (Report.Conditions),
// so rendered reports can be compared with the tool's byte for byte.
func finalState(procs int, stream []event.Event, conds map[int]string) (*wfg.Graph, map[int]dws.WaitEntry, error) {
	last := make([]trace.Op, procs)
	done := make([]bool, procs)
	for _, ev := range stream {
		switch ev.Type {
		case event.Enter:
			last[ev.Op.Proc] = ev.Op
		case event.Done:
			done[ev.Proc] = true
		}
	}
	g := wfg.New(procs)
	entries := make(map[int]dws.WaitEntry)
	for r := 0; r < procs; r++ {
		if done[r] {
			g.SetFinished(r)
			continue
		}
		op := last[r]
		if op.Kind != trace.Recv || op.Peer != trace.AnySource || op.Comm != trace.CommWorld {
			return nil, nil, fmt.Errorf("rank %d hangs in %v, want a wildcard receive", r, op.Kind)
		}
		targets := make([]int, 0, procs-1)
		for t := 0; t < procs; t++ {
			if t != r {
				targets = append(targets, t)
			}
		}
		g.SetBlocked(r, waitstate.OrWait, targets, conds[r])
		entries[r] = dws.WaitEntry{
			Rank: r, State: dws.Blocked, Kind: op.Kind, TS: op.TS, Sem: dws.SemOr,
			Desc: conds[r], WildComms: []trace.CommID{op.Comm},
			IsWildcardRecv: true, Comm: op.Comm, Tag: op.Tag, MatchedSendProc: -1,
		}
	}
	return g, entries, nil
}

// graphPass is one pass of the graph and output drivers: build the final
// wait-for graph, check it the way the detection root does, and render the
// DOT and HTML reports.
type graphPass struct {
	dead      []int
	arcs      int
	dot, html string
}

func runGraphPass(tr *tracer, op, parent int, procs int, stream []event.Event, conds map[int]string) (graphPass, error) {
	var gp graphPass
	var g *wfg.Graph
	var entries map[int]dws.WaitEntry
	var err error
	tr.do(op, parent, "wfg.build", func(int) { g, entries, err = finalState(procs, stream, conds) })
	if err != nil {
		return gp, err
	}
	var cycle []int
	tr.do(op, parent, "wfg.check", func(id int) {
		tr.do(op, id, "wfg.Deadlocked", func(int) { gp.dead = g.Deadlocked() })
		sort.Ints(gp.dead)
		tr.do(op, id, "wfg.Cycle", func(int) { cycle = g.Cycle(gp.dead) })
		tr.do(op, id, "wfg.Groups", func(int) { g.Groups(gp.dead) })
		tr.do(op, id, "wfg.Simplify", func(int) { g.Simplify(gp.dead) })
	})
	gp.arcs = g.Arcs()
	tr.do(op, parent, "report.DOT", func(int) { gp.dot = report.DOT(g, gp.dead) })
	tr.do(op, parent, "report.HTML", func(int) {
		gp.html = report.HTML(&report.Data{Procs: procs, Deadlocked: gp.dead, Cycle: cycle, Entries: entries, Arcs: gp.arcs})
	})
	return gp, nil
}

// layerResult is what the drivers measured, for the per-layer metrics.
type layerResult struct {
	events      int // events in the recorded stream
	matchCalls  int // p2pmatch engine calls per replay
	graph       graphPass
	dotMatches  bool // direct DOT equals the tool's Report.DOT
	htmlMatches bool
}

// runDrivers captures the workload's inputs (event stream, final state) and
// runs every layer driver driverReps times under the tracer. rep is a
// checked report of the workload, whose artifacts the direct renderings are
// compared with.
func runDrivers(tr *tracer, op int, w *workload, rep *must.Report) (layerResult, error) {
	var lr layerResult
	var stream []event.Event
	var err error
	tr.do(op, 0, "mpisim.record", func(int) { stream, err = recordStream(w) })
	if err != nil {
		return lr, err
	}
	lr.events = len(stream)
	want := wantMatches(w, stream)
	for i := 0; i < driverReps; i++ {
		var matches int
		tr.do(op, 0, "p2pmatch.replay", func(int) { lr.matchCalls, matches = replayMatch(stream) })
		if matches != want {
			return lr, fmt.Errorf("p2pmatch replay: %d matches, want %d", matches, want)
		}
		tr.do(op, 0, "tbon.replay", func(id int) { err = replayTree(tr, op, id, w.procs, stream) })
		if err != nil {
			return lr, err
		}
		tr.do(op, 0, "graph.pass", func(id int) { lr.graph, err = runGraphPass(tr, op, id, w.procs, stream, rep.Conditions) })
		if err != nil {
			return lr, err
		}
	}
	if got := len(lr.graph.dead); got != len(rep.Deadlocked) || lr.graph.arcs != rep.Arcs {
		return lr, fmt.Errorf("graph driver: %d deadlocked ranks and %d arcs, the tool reported %d and %d",
			got, lr.graph.arcs, len(rep.Deadlocked), rep.Arcs)
	}
	lr.dotMatches = !w.deadlock || lr.graph.dot == rep.DOT
	lr.htmlMatches = !w.deadlock || lr.graph.html == rep.HTML
	return lr, nil
}
