// Package tbon implements the Tree-Based Overlay Network the tool runs on,
// the analogue of the paper's GTI infrastructure [11]: a tree of tool nodes
// with a configurable fan-in, FIFO (non-overtaking) links, downward
// broadcast, and direct intralayer links between first-layer nodes [13].
// Order-preserving aggregation [12] is built by the layers above (collective
// matching); tbon provides the guarantees those algorithms rely on:
//
//   - per-link FIFO: messages between any (sender, receiver) pair arrive in
//     send order — upward, downward, and on intralayer links;
//   - every node processes its messages in a single goroutine, so handler
//     state needs no locking;
//   - tool-internal links never deadlock: they are pumped queues that
//     accept unboundedly, so cyclic intralayer flows (A→B while B→A) cannot
//     wedge the tool.
//
// Application ranks feed the first tool layer through Inject over bounded
// links, which apply backpressure when the tool lags — the mechanism behind
// measured tool slowdown.
//
// # Faults and self-healing
//
// A Config.Fault plan (see internal/fault) turns the idealized substrate
// into an adversarial one: link pumps drop, duplicate, reorder, jitter and
// stall messages, and scheduled crashes kill tool nodes. Two defense layers
// restore the guarantees the protocols need:
//
//   - a reliable link layer (transport.go): tool messages travel in
//     sequence-numbered frames; receivers deduplicate and resequence per
//     directed link, restoring exactly-once FIFO delivery, while a
//     retransmission scanner resends unacknowledged frames with exponential
//     backoff;
//   - heartbeat supervision (supervise.go): node loops beat a liveness
//     clock; a supervisor declares silent nodes dead, reattaches their
//     children to the grandparent (migrating unacknowledged frames to the
//     new link in order), and notifies the tool via Config.OnNodeDown so
//     the protocol layers can resynchronize or degrade explicitly.
package tbon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwst/internal/event"
	"dwst/internal/fault"
)

// ErrStopped is returned by Inject after the tree stopped: the event was
// not delivered to the tool.
var ErrStopped = errors.New("tbon: tree stopped")

// ErrNodeDown is returned by Inject when the first-layer node hosting the
// rank has crashed (fault injection): the event was not delivered.
var ErrNodeDown = errors.New("tbon: hosting tool node is down")

// Config parameterizes the tree.
type Config struct {
	// Leaves is the number of application ranks.
	Leaves int
	// FanIn is the maximum number of children per node (≥ 2; the paper
	// evaluates 2, 4 and 8).
	FanIn int
	// EventBuf is the capacity of the rank → first-layer links. Small
	// buffers emphasize backpressure; default 256.
	EventBuf int
	// PreferWaitState makes first-layer node loops drain intralayer
	// (wait-state) messages before application events — the paper's
	// future-work mitigation for trace-window growth (Sec. 4.2).
	PreferWaitState bool
	// LinkDelay, when positive, delays every tool-internal message by this
	// duration in the link pumps (simulating slow network links between
	// tool nodes). Per-link FIFO order is preserved; messages on one link
	// are serialized delay apart.
	LinkDelay time.Duration
	// Batch is ignored: hot-path batching is how the tree always works.
	// Queue pumps deliver a slab of all due messages per wakeup, node loops
	// drain already-queued rank events opportunistically, the reliable
	// transport acknowledges once per delivery cycle, and handlers
	// implementing Flusher are flushed at the end of every cycle.
	//
	// Deprecated: batching is unconditional; the field has no effect.
	Batch bool
	// Fault, when non-nil, activates the fault plane: link faults per the
	// plan's rules, scheduled node crashes, heartbeat supervision, and —
	// unless the plan disables it — the reliable link layer.
	Fault *fault.Plan
	// Net, when non-nil, activates the TCP fabric: the tree spans multiple
	// OS processes, each building this same topology but running only its
	// local nodes (see NetConfig). Mutually exclusive with Fault — over the
	// wire, the adversary is the network itself (or the wire-level fault
	// proxy), and the reliable link layer is always on. Requires at least
	// two tool layers, so the root stays coordinator-local.
	Net *NetConfig
	// OnNodeDown is invoked (from the supervisor goroutine) after a
	// crashed node was detected and its children reattached. The tool
	// uses it to resynchronize aggregation or degrade explicitly.
	OnNodeDown func(n *Node)
	// OnNodeRecovered is invoked (from the supervisor goroutine) after a
	// crashed first-layer node was respawned and its state rebuilt by
	// journal replay (fault plan with Recover). The argument is the
	// replacement node; OnNodeDown is NOT called for recovered nodes.
	OnNodeRecovered func(n *Node)
	// MemBudget bounds the resident bytes of the tool-plane buffers (queue
	// pumps and TCP send buffers) in this process: data-lane traffic is
	// byte-accounted against the budget and backpressure is applied at the
	// rank → leaf intake, while control-lane traffic (heartbeats,
	// snapshot/epoch control, supervision) is always admitted free — see
	// govern.go. Zero (or negative) means DefaultMemBudget.
	MemBudget int64
}

// DefaultMemBudget is the tool-plane byte budget a tree applies when
// Config.MemBudget is zero. Generous — far above anything the paper's
// workloads or the chaos suites need — yet still a hard per-process
// ceiling, so a pinned link degrades a run honestly instead of growing the
// tool without limit.
const DefaultMemBudget int64 = 256 << 20

// Handler is the per-node tool logic. All methods run on the node's
// goroutine.
type Handler interface {
	// FromRank delivers an application event from a hosted rank
	// (first-layer nodes only).
	FromRank(rank int, ev any)
	// FromChild delivers a tool message from child node index child.
	FromChild(child int, msg any)
	// FromParent delivers a broadcast/control message from the parent.
	FromParent(msg any)
	// FromPeer delivers an intralayer message (first layer only).
	FromPeer(peer int, msg any)
	// Control delivers an out-of-band message injected by the driver
	// (e.g. the timeout trigger for deadlock detection at the root).
	Control(msg any)
}

// RankEventHandler is an optional Handler extension for first-layer
// handlers: when it is implemented, typed injections (InjectEvent) are
// delivered through FromRankEvent without boxing the event into an
// interface — the dominant per-event allocation on the hot path. Without
// it, typed injections fall back to FromRank with a boxed payload.
type RankEventHandler interface {
	FromRankEvent(rank int, ev event.Event)
}

// Flusher is an optional Handler extension. When the handler implements it,
// Flush runs on the node goroutine at the end of every delivery cycle —
// after a whole slab, event batch, or single message was dispatched, and
// before the loop can observe quit or a crash. Handlers that coalesce
// outgoing traffic (see internal/dws) emit it here; the ordering guarantee
// means a crashed node has always emitted the output of every input it
// processed, which the journal-replay recovery contract relies on.
type Flusher interface {
	Flush()
}

type envelope struct {
	from int
	msg  any
	// quiet excludes the delivery from the handled counter, so periodic
	// bookkeeping traffic (watchdog heartbeats) cannot keep deferring the
	// driver's quiescence-based detection trigger.
	quiet bool
}

// rankEnvelope is one application-event delivery on the rank → first-layer
// link. Typed injections (InjectEvent) travel unboxed in ev; Inject's
// arbitrary payloads ride msg. Keeping both on one channel preserves
// per-rank FIFO between the two entry points.
type rankEnvelope struct {
	from  int
	ev    event.Event
	msg   any
	typed bool
	quiet bool
}

// timed is a queued message with its earliest delivery time.
type timed struct {
	env envelope
	due time.Time
}

// maxSlab bounds how many envelopes one slab (and one opportunistic event
// drain) may carry: large enough to amortize the channel op and select
// rebuild, small enough to keep a node responsive to its other inputs.
const maxSlab = 128

// slab is one pump wakeup's worth of envelopes, delivered to the node in a
// single channel operation and returned to the pool after dispatch.
type slab struct {
	envs []envelope
}

var slabPool = sync.Pool{
	// Pool *slab, not []envelope: a slice value would be boxed into a fresh
	// interface allocation on every Put, defeating the pool.
	New: func() any { return &slab{envs: make([]envelope, 0, 16)} },
}

func getSlab() *slab { return slabPool.Get().(*slab) }

func putSlab(s *slab) {
	for i := range s.envs {
		s.envs[i] = envelope{} // release payload references before pooling
	}
	s.envs = s.envs[:0]
	slabPool.Put(s)
}

// queue is an unbounded FIFO link: senders enqueue without ever blocking
// permanently; a pump goroutine feeds the consumer channel in order. The
// pump drains the intake eagerly — fault delays and stalls gate delivery,
// never admission, so a stalled link cannot block its senders. Delivery is
// in slabs of up to maxSlab due messages per channel op.
type queue struct {
	in  chan envelope
	out chan *slab
}

func newQueue(quit <-chan struct{}, wg *sync.WaitGroup, delay time.Duration, fl *fault.Link, gov *governor, class int) *queue {
	q := &queue{in: make(chan envelope, 64), out: make(chan *slab, 16)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []timed
		var lastDue time.Time
		var stallUntil time.Time
		timer := time.NewTimer(time.Hour)
		if !timer.Stop() {
			<-timer.C
		}
		timerArmed := false
		// charge accounts an admitted envelope against the governor's
		// budget; the matching release happens in dispatchSlab once the
		// consumer has processed it, so the charge covers the whole
		// residence (buf, ready slab, out channel).
		charge := func(e envelope, copies int) {
			if c := envCost(e.msg); c > 0 {
				for i := 0; i < copies; i++ {
					gov.charge(class, c)
				}
			}
		}
		admit := func(e envelope) {
			if fl == nil && delay == 0 {
				// Fast path: no fault plan, no simulated link delay — the
				// envelope is due immediately (a zero due time is never
				// after now), so skip the clock read and the whole
				// decision/serialization bookkeeping.
				charge(e, 1)
				buf = append(buf, timed{env: e})
				return
			}
			now := time.Now()
			var d fault.Decision
			if fl != nil {
				d = fl.Decide(innerMsg(e.msg))
			}
			if d.Stall > 0 {
				if until := now.Add(d.Stall); until.After(stallUntil) {
					stallUntil = until
				}
			}
			if d.Drop {
				return
			}
			due := now
			if delay > 0 {
				// Serialize: each message occupies the link for `delay`.
				base := now
				if lastDue.After(base) {
					base = lastDue
				}
				due = base.Add(delay)
				lastDue = due
			}
			if d.Delay > 0 {
				due = due.Add(d.Delay)
			}
			if stallUntil.After(due) {
				due = stallUntil
			}
			copies := 1
			if d.Dup {
				copies = 2
			}
			charge(e, copies)
			first := len(buf)
			for i := 0; i < copies; i++ {
				buf = append(buf, timed{env: e, due: due})
			}
			if d.Reorder && first >= 1 {
				// The new message overtakes its predecessor (dues stay in
				// place so head wakeups remain monotone).
				buf[first-1].env, buf[first].env = buf[first].env, buf[first-1].env
			}
		}
		// ready is the slab prebuilt from the current due prefix of buf;
		// stale forces a rebuild after any admission (which may reorder or
		// extend the prefix). Rebuilding only when the prefix changed keeps
		// the steady state allocation- and copy-free across failed selects.
		var ready *slab
		nready := 0
		stale := true
		for {
			var outCh chan *slab
			var timerCh <-chan time.Time
			if len(buf) > 0 {
				now := time.Now()
				due := 0
				for due < len(buf) && due < maxSlab && !buf[due].due.After(now) {
					due++
				}
				if due > 0 {
					if stale || due != nready {
						if ready == nil {
							ready = getSlab()
						}
						ready.envs = ready.envs[:0]
						for i := 0; i < due; i++ {
							ready.envs = append(ready.envs, buf[i].env)
						}
						nready = due
						stale = false
					}
					outCh = q.out
				} else {
					if timerArmed && !timer.Stop() {
						<-timer.C
					}
					timer.Reset(buf[0].due.Sub(now))
					timerArmed = true
					timerCh = timer.C
				}
			}
			select {
			case e := <-q.in:
				admit(e)
				// Drain the intake opportunistically: senders that raced the
				// wakeup land in the same slab instead of costing one select
				// round-trip each.
			drain:
				for i := 1; i < maxSlab; i++ {
					select {
					case e := <-q.in:
						admit(e)
					default:
						break drain
					}
				}
				stale = true
			case outCh <- ready:
				// Compact instead of reslicing: buf[nready:] would abandon
				// the array prefix, so every slab consumed forces the next
				// appends into a fresh allocation. Moving the (typically
				// tiny) tail down reuses one backing array forever.
				rest := copy(buf, buf[nready:])
				buf = buf[:rest]
				ready = nil
				nready = 0
				stale = true
			case <-timerCh:
				timerArmed = false
			case <-quit:
				return
			}
		}
	}()
	return q
}

func (q *queue) send(e envelope, quit <-chan struct{}) {
	select {
	case q.in <- e:
	case <-quit:
	}
}

// Node is one tool process in the tree.
type Node struct {
	tree  *Tree
	layer int // 0 = first tool layer
	index int
	gid   int // global node id, unique across layers
	// local reports whether this node runs in this process (always true
	// without a TCP fabric). Remote nodes are topology placeholders: no
	// queues, no loop, no handler — frames addressed to them cross the wire.
	local bool

	// parent and children are guarded by tree.topo: reattachment after a
	// crash rewires them at runtime.
	parent   *Node
	children []*Node

	events    chan rankEnvelope // app events (layer 0; bounded)
	fromBelow *queue            // tool messages from children / self
	fromAbove *queue            // broadcasts from parent
	fromPeer  *queue            // intralayer (layer 0)
	control   chan envelope

	handler Handler
	// flusher and rankHandler cache the handler's optional extensions (set
	// alongside handler, before the loop starts).
	flusher     Flusher
	rankHandler RankEventHandler

	// rsq resequences reliable frames per incoming directed link; it is
	// touched only by the node goroutine.
	rsq map[linkKey]*reseq

	// ackPend accumulates the per-link cumulative acknowledgements of one
	// delivery cycle, flushed in one transport pass at cycle end (allocated
	// on the first reliable frame). ackKeys mirrors the map keys so the
	// flush allocates nothing. Both are touched only by the node goroutine.
	ackPend map[linkKey]uint64
	ackKeys []linkKey

	// lastBeat is the liveness clock (UnixNano), updated by the node loop
	// and read by the supervisor.
	lastBeat atomic.Int64
	// dead is closed when the node crashes (scheduled or declared).
	dead     chan struct{}
	deadOnce sync.Once
	// reaped marks that the supervisor already handled this death.
	reaped atomic.Bool

	// loopDone is closed when the node's loop goroutine exits; recovery
	// waits on it so journal replay never races a limping zombie.
	loopDone chan struct{}
	// respawned is closed once the slot's fate after a crash is settled:
	// either a replacement took over the topology maps (Inject retries
	// against it) or recovery failed and the slot degraded (Inject gives
	// up with ErrNodeDown).
	respawned chan struct{}
}

// Tree is the whole overlay.
type Tree struct {
	cfg      Config
	layers   [][]*Node
	leafNode []*Node // leafNode[rank] hosts the rank

	// topo guards every node's parent/children pointers (crash
	// reattachment mutates them) and, on the TCP fabric, gidIndex plus
	// per-node gids (supervised respawn re-gids leaves in place). Readers
	// that resolve gids take RLock. Lock order: topo before transport.mu.
	topo sync.RWMutex

	injector  *fault.Injector
	transport *transport // nil unless the reliable link layer is active
	net       *netFabric // nil unless the TCP fabric is active
	gov       *governor
	gidIndex  map[int]*Node

	// nextGid hands out fresh global ids to respawned replacement nodes
	// (guarded by topo); mkHandler is retained from Start so a replacement
	// can rebuild its tool layer. recoveries counts successful respawns.
	nextGid    int
	mkHandler  func(n *Node) Handler
	recoveries atomic.Uint64

	injected atomic.Uint64
	handled  atomic.Uint64

	quit chan struct{}
	wg   sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds the tree topology (without starting node loops). It panics on
// invalid configuration; trees with a TCP fabric should prefer NewNet,
// which surfaces network setup as an error.
func New(cfg Config) *Tree {
	t, err := NewNet(cfg)
	if err != nil {
		panic("tbon: " + err.Error())
	}
	return t
}

// NewNet builds the tree topology like New, returning configuration and
// network setup problems (a busy listen address, a bad role) as errors.
// With Config.Net set, only this process's local nodes get queues and
// loops; the rest of the topology is placeholders the fabric routes past.
func NewNet(cfg Config) (*Tree, error) {
	if cfg.Leaves <= 0 {
		panic("tbon: Leaves must be positive")
	}
	if cfg.FanIn < 2 {
		panic("tbon: FanIn must be at least 2")
	}
	if cfg.EventBuf == 0 {
		cfg.EventBuf = 256
	}
	width0 := (cfg.Leaves + cfg.FanIn - 1) / cfg.FanIn
	if nc := cfg.Net; nc != nil {
		if cfg.Fault != nil {
			return nil, errors.New("fault plan and TCP fabric are mutually exclusive (use the wire-level fault proxy)")
		}
		if width0 < 2 {
			return nil, fmt.Errorf("TCP fabric needs at least two first-layer nodes (got %d): the root must stay coordinator-local", width0)
		}
		if nc.Workers < 1 {
			return nil, fmt.Errorf("NetConfig.Workers must be positive (got %d)", nc.Workers)
		}
		if nc.Role == NetWorker && (nc.Worker < 0 || nc.Worker >= nc.Workers) {
			return nil, fmt.Errorf("NetConfig.Worker %d out of range [0,%d)", nc.Worker, nc.Workers)
		}
	}
	isLocal := func(layer, idx int) bool {
		nc := cfg.Net
		if nc == nil {
			return true
		}
		if nc.Role == NetCoordinator {
			return layer > 0
		}
		return layer == 0 && ownerOfLeaf(idx, width0, nc.Workers) == nc.Worker
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	t := &Tree{cfg: cfg, quit: make(chan struct{})}
	t.gov = newGovernor(cfg.MemBudget)
	if cfg.Fault != nil {
		t.injector = fault.NewInjector(cfg.Fault)
	}
	if cfg.Net != nil || (cfg.Fault != nil && !cfg.Fault.DisableRetransmit) {
		t.transport = newTransport(t, cfg.Fault)
	}
	gid := 0
	width := width0
	prevWidth := 0
	layer := 0
	for {
		nodes := make([]*Node, width)
		for i := range nodes {
			n := &Node{
				tree:      t,
				layer:     layer,
				index:     i,
				gid:       gid,
				local:     isLocal(layer, i),
				control:   make(chan envelope, 16),
				dead:      make(chan struct{}),
				rsq:       make(map[linkKey]*reseq),
				loopDone:  make(chan struct{}),
				respawned: make(chan struct{}),
			}
			if n.local {
				n.fromBelow = newQueue(t.quit, &t.wg, cfg.LinkDelay, t.faultLink(gid, fault.UpLink), t.gov, govUp)
				n.fromAbove = newQueue(t.quit, &t.wg, cfg.LinkDelay, t.faultLink(gid, fault.DownLink), t.gov, govDown)
			}
			gid++
			if layer == 0 {
				if n.local {
					n.events = make(chan rankEnvelope, cfg.EventBuf)
					n.fromPeer = newQueue(t.quit, &t.wg, cfg.LinkDelay, t.faultLink(n.gid, fault.PeerLink), t.gov, govPeer)
				}
			} else {
				lo := i * cfg.FanIn
				hi := lo + cfg.FanIn
				if hi > prevWidth {
					hi = prevWidth
				}
				for c := lo; c < hi; c++ {
					n.children = append(n.children, t.layers[layer-1][c])
				}
			}
			nodes[i] = n
		}
		t.layers = append(t.layers, nodes)
		if layer > 0 {
			for _, child := range t.layers[layer-1] {
				child.parent = nodes[child.index/cfg.FanIn]
			}
		}
		if width == 1 {
			break
		}
		prevWidth = width
		width = (width + cfg.FanIn - 1) / cfg.FanIn
		layer++
	}

	t.nextGid = gid

	// A worker joining (or rejoining) after a supervised respawn must adopt
	// the coordinator's current first-layer gid assignment: the default
	// identity mapping would address gids retired by earlier respawns.
	if nc := cfg.Net; nc != nil && nc.Role == NetWorker && len(nc.LeafGids) == width0 {
		for i, n := range t.layers[0] {
			n.gid = nc.LeafGids[i]
			if n.gid >= t.nextGid {
				t.nextGid = n.gid + 1
			}
		}
	}

	t.leafNode = make([]*Node, cfg.Leaves)
	for r := 0; r < cfg.Leaves; r++ {
		t.leafNode[r] = t.layers[0][r/cfg.FanIn]
	}
	if cfg.Net != nil {
		t.gidIndex = make(map[int]*Node, gid)
		for _, l := range t.layers {
			for _, n := range l {
				t.gidIndex[n.gid] = n
			}
		}
		if err := t.startNet(); err != nil {
			close(t.quit) // release the queue pumps already spawned
			t.wg.Wait()
			return nil, err
		}
	}
	return t, nil
}

// arm caches a node's optional handler extensions before its loop starts.
func (n *Node) arm() {
	n.flusher, _ = n.handler.(Flusher)
	n.rankHandler, _ = n.handler.(RankEventHandler)
}

// Start launches one goroutine per node (plus, with a fault plan, the
// retransmission scanner, crash timers and the heartbeat supervisor).
// mkHandler constructs the handler for each node before any message flows.
func (t *Tree) Start(mkHandler func(n *Node) Handler) {
	t.startOnce.Do(func() {
		t.mkHandler = mkHandler
		for _, layer := range t.layers {
			for _, n := range layer {
				if !n.local {
					continue // remote nodes run in their own process
				}
				n.handler = mkHandler(n)
				n.arm()
			}
		}
		for _, layer := range t.layers {
			for _, n := range layer {
				if !n.local {
					continue
				}
				t.wg.Add(1)
				go n.loop()
			}
		}
		if t.transport != nil {
			t.wg.Add(1)
			go t.transport.run()
		}
		if t.cfg.Fault != nil {
			t.startCrashTimers()
			if t.cfg.Fault.Supervised() {
				t.wg.Add(1)
				go t.supervise()
			}
		}
	})
}

// Stop terminates all node loops and pumps and waits for them. With a
// coordinator fabric it first asks every reachable worker to stop and
// collects their final reports (see WorkerFinals), then tears the fabric
// down.
func (t *Tree) Stop() {
	if t.net != nil && t.net.role == NetCoordinator {
		t.net.shutdownOnce.Do(t.net.shutdownWorkers)
	}
	t.stopOnce.Do(func() { close(t.quit) })
	t.wg.Wait()
	if t.net != nil {
		t.net.close()
	}
}

// Inject delivers an application event to the first-layer node hosting the
// rank. It blocks when the node's event queue is full (backpressure). It
// returns ErrStopped after the tree stopped and ErrNodeDown when the
// hosting node crashed; in both cases the event was not delivered.
func (t *Tree) Inject(rank int, ev any) error {
	return t.inject(rank, rankEnvelope{msg: ev})
}

// InjectQuiet delivers an application event like Inject but without
// counting it: the delivery bumps neither Injected nor Handled, so
// periodic probes (watchdog heartbeats) do not look like tool activity to
// the quiescence detector. FIFO order with regular events is preserved —
// both travel the same per-rank link.
func (t *Tree) InjectQuiet(rank int, ev any) error {
	return t.inject(rank, rankEnvelope{msg: ev, quiet: true})
}

// InjectEvent delivers an application event like Inject, but typed: the
// event reaches a RankEventHandler without ever being boxed into an
// interface, making the intake allocation-free per event. A plain Handler
// receives the event boxed through FromRank.
func (t *Tree) InjectEvent(rank int, ev event.Event) error {
	return t.inject(rank, rankEnvelope{ev: ev, typed: true})
}

// InjectEventQuiet is InjectEvent without counting (see InjectQuiet).
func (t *Tree) InjectEventQuiet(rank int, ev event.Event) error {
	return t.inject(rank, rankEnvelope{ev: ev, typed: true, quiet: true})
}

// inject implements Inject/InjectQuiet. The leafNode read is topology-
// guarded because crash recovery swaps the hosting node at runtime. When
// the hosting node is dead and the tree can recover it, the injector waits
// for the slot's fate instead of dropping the event: the replacement
// adopts the slot's mailbox, so a successful respawn preserves per-rank
// FIFO with zero dropped events.
func (t *Tree) inject(rank int, env rankEnvelope) error {
	env.from = rank
	for {
		t.topo.Lock()
		n := t.leafNode[rank]
		t.topo.Unlock()
		if !n.local {
			// Remote hosting node (coordinator of a TCP fabric): the event
			// crosses the wire on a sequenced RankLink frame, gated by the
			// per-leaf window so backpressure still reaches the rank.
			return t.injectRemote(n, env)
		}
		// Resource-governor backpressure: when tool-plane buffers approach
		// the budget, the data-lane intake gate closes and ranks wait here —
		// the global, byte-denominated analogue of the bounded events
		// channel below. Quiet (watchdog) injections bypass the gate so
		// liveness probes keep flowing through an overloaded tree.
		if !env.quiet && !t.gov.admitIntake(n.dead, t.quit) {
			return ErrStopped
		}
		select {
		case n.events <- env:
			if !env.quiet {
				t.injected.Add(1)
			}
			return nil
		case <-n.dead:
			if !t.recoveryEnabled() {
				return ErrNodeDown
			}
			select {
			case <-n.respawned:
			case <-t.quit:
				return ErrStopped
			}
			t.topo.Lock()
			cur := t.leafNode[rank]
			t.topo.Unlock()
			if cur == n {
				return ErrNodeDown // recovery failed: slot degraded
			}
			// A replacement took over: retry against it.
		case <-t.quit:
			return ErrStopped
		}
	}
}

// Injected returns the number of injected application events.
func (t *Tree) Injected() uint64 { return t.injected.Load() }

// Handled returns the number of messages processed across all nodes; stable
// Injected and Handled values indicate quiescence. On a TCP-fabric
// coordinator this includes the workers' last progress reports, so remote
// activity defers the quiescence trigger like local activity does.
func (t *Tree) Handled() uint64 {
	h := t.handled.Load()
	if t.net != nil && t.net.role == NetCoordinator {
		h += t.net.remoteHandled()
	}
	return h
}

// InFlight reports the number of reliable-layer frames sent but not yet
// acknowledged, across this process and (on the TCP coordinator) every
// worker's last report. A handled-counter plateau alone is not quiescence
// over a real network — a dropped frame awaiting retransmission is invisible
// to Handled — so detection triggers gate on InFlight reaching zero.
func (t *Tree) InFlight() int {
	n := 0
	if t.transport != nil {
		n = t.transport.inFlight()
	}
	if t.net != nil && t.net.role == NetCoordinator {
		n += int(t.net.remoteInFlight())
	}
	return n
}

// Retransmits returns the number of frames the reliable link layer resent
// (0 without a fault plan).
func (t *Tree) Retransmits() uint64 {
	if t.transport == nil {
		return 0
	}
	return t.transport.retransmits.Load()
}

// Abandoned returns the number of frames the reliable link layer gave up
// on after exhausting retransmission attempts.
func (t *Tree) Abandoned() uint64 {
	if t.transport == nil {
		return 0
	}
	return t.transport.abandoned.Load()
}

// Recoveries returns the number of first-layer nodes successfully
// respawned after a crash.
func (t *Tree) Recoveries() uint64 { return t.recoveries.Load() }

// GovStats returns a snapshot of this process's tool-plane resource
// accounting. On a TCP-fabric coordinator it covers only coordinator-local
// buffers; the workers' accounting arrives in their WorkerFinal reports.
func (t *Tree) GovStats() GovernorStats { return t.gov.stats() }

// Overloaded reports whether the resource governor observed budget
// overflow: backpressure alone could not keep resident tool-plane bytes
// under Config.MemBudget (typically a fault-stalled or dead link pinning
// buffered frames).
func (t *Tree) Overloaded() bool { return t.gov.overflow.Load() > 0 }

// FirstLayer returns the first tool layer.
func (t *Tree) FirstLayer() []*Node { return t.layers[0] }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.layers[len(t.layers)-1][0] }

// Layers returns the number of tool layers.
func (t *Tree) Layers() int { return len(t.layers) }

// NumNodes returns the total number of tool nodes.
func (t *Tree) NumNodes() int {
	n := 0
	for _, l := range t.layers {
		n += len(l)
	}
	return n
}

// NodeFor returns the index of the first-layer node hosting rank.
func (t *Tree) NodeFor(rank int) int { return rank / t.cfg.FanIn }

// RanksOf returns the application ranks hosted by first-layer node idx.
func (t *Tree) RanksOf(idx int) []int {
	lo := idx * t.cfg.FanIn
	hi := lo + t.cfg.FanIn
	if hi > t.cfg.Leaves {
		hi = t.cfg.Leaves
	}
	ranks := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// Control injects an out-of-band message into a node. Safe from any
// goroutine.
func (t *Tree) Control(n *Node, msg any) {
	select {
	case n.control <- envelope{msg: msg}:
	case <-t.quit:
	}
}

// --- Node methods (callable from the node's handler) ---

// Layer returns the node's layer (0 = first tool layer).
func (n *Node) Layer() int { return n.layer }

// Index returns the node's index within its layer.
func (n *Node) Index() int { return n.index }

// IsRoot reports whether this node is the tree root.
func (n *Node) IsRoot() bool { return n.layer == len(n.tree.layers)-1 }

// IsFirstLayer reports whether this node is in the first tool layer.
func (n *Node) IsFirstLayer() bool { return n.layer == 0 }

// Children returns the current child node indices (empty on the first
// layer). After crash reattachment the list may span layers.
func (n *Node) Children() []int {
	n.tree.topo.Lock()
	defer n.tree.topo.Unlock()
	idx := make([]int, len(n.children))
	for i, c := range n.children {
		idx[i] = c.index
	}
	return idx
}

// NumPeers returns the number of first-layer nodes.
func (n *Node) NumPeers() int { return len(n.tree.layers[0]) }

// Tree returns the owning tree.
func (n *Node) Tree() *Tree { return n.tree }

// SendUp sends a tool message to the parent. On the root, the message is
// delivered back to the root itself via FromChild(own index) — aggregation
// logic then works uniformly on trees of any depth.
func (n *Node) SendUp(msg any) {
	t := n.tree
	t.topo.Lock()
	target := n.parent
	if target == nil {
		target = n
	}
	env := envelope{from: n.index, msg: msg}
	if t.transport != nil {
		env = t.transport.wrap(n, target, fault.UpLink, env)
	}
	t.topo.Unlock()
	t.transmit(target, fault.UpLink, env)
}

// Broadcast sends a message down to all children; first-layer nodes have no
// children, so handlers there act on the message instead of forwarding.
func (n *Node) Broadcast(msg any) {
	if n.layer == 0 {
		return
	}
	t := n.tree
	t.topo.Lock()
	targets := make([]*Node, len(n.children))
	copy(targets, n.children)
	envs := make([]envelope, len(targets))
	for i, c := range targets {
		envs[i] = envelope{msg: msg}
		if t.transport != nil {
			envs[i] = t.transport.wrap(n, c, fault.DownLink, envs[i])
		}
	}
	t.topo.Unlock()
	for i, c := range targets {
		t.transmit(c, fault.DownLink, envs[i])
	}
}

// SendPeer sends an intralayer message to first-layer node peer (self-sends
// are delivered through the queue, keeping handlers single-threaded).
func (n *Node) SendPeer(peer int, msg any) {
	if n.layer != 0 {
		panic(fmt.Sprintf("tbon: intralayer send from layer %d", n.layer))
	}
	t := n.tree
	// The target read shares the topo critical section with the transport
	// wrap: crash recovery swaps first-layer slots at runtime, and the
	// frame must be sequenced on the link of whichever incarnation the
	// send resolves to (migration re-keys it atomically otherwise).
	t.topo.Lock()
	target := t.layers[0][peer]
	env := envelope{from: n.index, msg: msg}
	if t.transport != nil {
		env = t.transport.wrap(n, target, fault.PeerLink, env)
	}
	t.topo.Unlock()
	t.transmit(target, fault.PeerLink, env)
}

// transmit delivers one (possibly framed) envelope to its target: through
// the in-process queue when the target lives here, across the wire
// otherwise. Remote envelopes are always frames — the TCP fabric implies
// the reliable layer.
func (t *Tree) transmit(target *Node, class fault.Class, env envelope) {
	if target.local {
		switch class {
		case fault.UpLink:
			target.fromBelow.send(env, t.quit)
		case fault.DownLink:
			target.fromAbove.send(env, t.quit)
		default:
			target.fromPeer.send(env, t.quit)
		}
		return
	}
	t.net.sendData(env)
}

// loop is the node's message pump.
func (n *Node) loop() {
	defer n.tree.wg.Done()
	defer close(n.loopDone)
	quit := n.tree.quit
	var hbC <-chan time.Time
	supervised := n.tree.cfg.Fault != nil && n.tree.cfg.Fault.Supervised()
	if supervised {
		tick := time.NewTicker(n.tree.cfg.Fault.HeartbeatInterval())
		defer tick.Stop()
		hbC = tick.C
		n.lastBeat.Store(time.Now().UnixNano())
	}
	for {
		if supervised {
			n.lastBeat.Store(time.Now().UnixNano())
		}
		if n.layer == 0 {
			// Wait-state priority: handle intralayer and parent messages
			// before new application events when configured.
			if n.tree.cfg.PreferWaitState {
				select {
				case s := <-n.fromPeer.out:
					n.dispatchSlab(s, govPeer, n.dispatchPeer)
					n.endCycle()
					continue
				case s := <-n.fromAbove.out:
					n.dispatchSlab(s, govDown, n.dispatchParent)
					n.endCycle()
					continue
				default:
				}
			}
			select {
			case env := <-n.control:
				n.tree.handled.Add(1)
				n.handler.Control(env.msg)
			case s := <-n.fromPeer.out:
				n.dispatchSlab(s, govPeer, n.dispatchPeer)
			case s := <-n.fromAbove.out:
				n.dispatchSlab(s, govDown, n.dispatchParent)
			case s := <-n.fromBelow.out:
				n.dispatchSlab(s, govUp, n.dispatchChild)
			case env := <-n.events:
				n.dispatchRank(env)
				n.drainEvents()
			case <-hbC:
			case <-n.dead:
				return
			case <-quit:
				return
			}
			n.endCycle()
			continue
		}
		select {
		case env := <-n.control:
			n.tree.handled.Add(1)
			n.handler.Control(env.msg)
		case s := <-n.fromAbove.out:
			n.dispatchSlab(s, govDown, n.dispatchParent)
		case s := <-n.fromBelow.out:
			n.dispatchSlab(s, govUp, n.dispatchChild)
		case <-hbC:
		case <-n.dead:
			return
		case <-quit:
			return
		}
		n.endCycle()
	}
}

// endCycle closes one delivery cycle: flush the batched acknowledgements,
// then the handler's coalesced output. Runs before the loop can observe
// quit or a crash, so a dead node has always emitted the output of every
// input it dispatched.
func (n *Node) endCycle() {
	n.flushAcks()
	if n.flusher != nil {
		n.flusher.Flush()
	}
}

// dispatchSlab dispatches every envelope of one slab, releases the slab's
// governor charges (the envelopes are no longer tool-plane residents once
// the handler consumed them), and returns it to the pool.
func (n *Node) dispatchSlab(s *slab, class int, fn func(envelope)) {
	for _, env := range s.envs {
		fn(env)
	}
	for _, env := range s.envs {
		if c := envCost(env.msg); c > 0 {
			n.tree.gov.release(class, c)
		}
	}
	putSlab(s)
}

func (n *Node) dispatchRank(env rankEnvelope) {
	if !env.quiet {
		n.tree.handled.Add(1)
	}
	if env.typed {
		if n.rankHandler != nil {
			n.rankHandler.FromRankEvent(env.from, env.ev)
			return
		}
		// A handler without the typed extension: box at delivery.
		n.handler.FromRank(env.from, env.ev)
		return
	}
	n.handler.FromRank(env.from, env.msg)
}

// maxEventDrain bounds how many rank events one delivery cycle absorbs.
// Deliberately much smaller than maxSlab: every drained event opens
// wait-state work whose handshake messages only flush at cycle end, so a
// large gulp inflates the live trace window (and the matching engines'
// memory) for little extra amortization.
const maxEventDrain = 16

// drainEvents opportunistically consumes rank events already sitting in
// the mailbox so one cycle (and one coalescing flush) covers them all.
// Bounded so the node stays responsive to its other inputs.
func (n *Node) drainEvents() {
	for i := 1; i < maxEventDrain; i++ {
		select {
		case env := <-n.events:
			n.dispatchRank(env)
		default:
			return
		}
	}
}

func (n *Node) dispatchPeer(env envelope) {
	n.deliver(env, func(e envelope) {
		n.tree.handled.Add(1)
		n.handler.FromPeer(e.from, e.msg)
	})
}

func (n *Node) dispatchParent(env envelope) {
	n.deliver(env, func(e envelope) {
		n.tree.handled.Add(1)
		n.handler.FromParent(e.msg)
	})
}

func (n *Node) dispatchChild(env envelope) {
	n.deliver(env, func(e envelope) {
		n.tree.handled.Add(1)
		n.handler.FromChild(e.from, e.msg)
	})
}

// innerMsg unwraps a transport frame for fault Match predicates.
func innerMsg(msg any) any {
	if f, ok := msg.(frame); ok {
		return f.msg
	}
	return msg
}
