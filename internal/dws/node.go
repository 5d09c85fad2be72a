package dws

import (
	"fmt"
	"time"

	"dwst/internal/collmatch"
	"dwst/internal/event"
	"dwst/internal/p2pmatch"
	"dwst/internal/trace"
)

// Out is the communication surface a node uses: intralayer messages to peer
// first-layer nodes and upward messages towards the root. Implementations
// wrap a tbon.Node; tests drive nodes directly.
type Out interface {
	// Peer sends an intralayer message to first-layer node `node`
	// (self-sends allowed and delivered through the queue).
	Peer(node int, msg any)
	// Up sends a message towards the root (Ready, Member,
	// AckConsistentState, WaitReport).
	Up(msg any)
}

// Node is the distributed wait-state tracker of one first-layer TBON node:
// it owns the state components l_i of its hosted ranks and implements the
// handlers of Figure 7 plus the node side of the consistent-state protocol.
type Node struct {
	id      int
	nodeFor func(worldRank int) int
	out     Out

	ranks map[int]*rankState
	match *p2pmatch.Engine
	coll  *collmatch.Leaf

	// collOps indexes hosted collective operations by (comm, wave) for
	// collectiveAck application; ackedEarly records acks that arrived before
	// the local operation.
	collOps    map[collKey][]opRef
	ackedEarly map[collKey]bool

	frozen   bool
	snap     *snapshot
	deferred []event.Event
	// lastEpoch is the newest snapshot epoch this node entered; older
	// requests are duplicates of aborted attempts and ignored.
	lastEpoch int
	// deadPeers are first-layer nodes declared crashed: snapshots skip
	// them (they can never pong).
	deadPeers map[int]bool

	// readySent holds collective reports emitted but not yet acknowledged
	// by a collective Ack, and membersSent the communicator-registry
	// reports, for re-emission after a tool-node crash (Resync): anything
	// swallowed by a dead interior node must reach the root again.
	readySent   map[collKey][]collmatch.Ready
	membersSent []collmatch.Member

	// deadRanks are application ranks known to have crashed (hosted or
	// not), from the local terminal event or the root's rebroadcast.
	deadRanks map[int]bool

	// passSeen[sender] is the highest send timestamp already registered
	// with matching, per sending world rank. PassSends from one rank
	// arrive in timestamp order (per-link FIFO, and crash-recovery frame
	// migration preserves order on both the old and the new link), so a
	// lower-or-equal timestamp is a duplicate delivered across an
	// incarnation boundary and must not be registered twice — the matching
	// engine is the one peer-protocol receiver that is not naturally
	// idempotent.
	passSeen map[int]int

	// quiet is the progress-watchdog quiet period: a hosted rank that is
	// alive, not blocked in a call, and issued no MPI call for longer than
	// quiet is reported Stalled. Zero disables the watchdog.
	quiet time.Duration

	// dirty tracks peers this node sent wait-state messages to since the
	// last snapshot. The consistent-state ping-pong must cover them all: an
	// acknowledgement can be in transit even when the local send operation
	// already completed its handshake (and its rank finished), so pinging
	// only the hosts of currently-active sends would leave a stale-report
	// race.
	dirty map[int]bool

	// window statistics (Sec. 4.2 memory discussion).
	curWindow int
	maxWindow int

	// retiredOps counts operations advanced past, the recovery plane's
	// checkpoint trigger (journal watermark advances on op retirement).
	retiredOps int

	// pendPeer coalesces intralayer traffic per destination: sendPeer
	// buffers into it and FlushPeers (driven by the substrate at the end of
	// each delivery cycle) ships one Batch per destination. pendDest keeps
	// the destinations in first-touch order so the flush is deterministic
	// and allocation-free.
	pendPeer map[int][]any
	pendDest []int

	stats Stats
}

// Stats counts the tool messages a node generated, for overhead analysis.
type Stats struct {
	PassSends      int
	RecvActives    int
	RecvActiveAcks int
	CollReadys     int
}

// Add accumulates another node's counters.
func (s *Stats) Add(o Stats) {
	s.PassSends += o.PassSends
	s.RecvActives += o.RecvActives
	s.RecvActiveAcks += o.RecvActiveAcks
	s.CollReadys += o.CollReadys
}

// Total sums all message counters.
func (s Stats) Total() int {
	return s.PassSends + s.RecvActives + s.RecvActiveAcks + s.CollReadys
}

type collKey struct {
	comm trace.CommID
	wave int
}

type opRef struct {
	rank int
	ts   int
}

type rankState struct {
	rank    int
	l       int // current timestamp l_i
	ops     map[int]*opState
	reqs    map[trace.ReqID]*reqRec
	collSeq map[trace.CommID]int
	done    bool // returned from the program (Done event)
	lastTS  int  // highest timestamp received

	// crashed/lastCall record the rank's death (RankDown event).
	crashed  bool
	lastCall int

	// Progress-watchdog bookkeeping: enters counts processed Enter events,
	// beatCalls is the rank's call counter carried by the latest heartbeat,
	// lastProgress the arrival time of the rank's latest event. A rank is
	// Stalled when it is between calls, its event stream is drained
	// (beatCalls <= enters), and lastProgress is older than the quiet
	// period.
	enters       int
	beatCalls    int
	lastProgress time.Time
}

// reqRec survives its operation's window entry: once the communication
// completed, completions only need the boolean.
type reqRec struct {
	ts   int
	done bool
}

type opState struct {
	op     trace.Op
	active bool
	canAdv bool
	// p2p state
	matched    bool
	peerProc   int // matched peer op (world rank)
	peerTS     int
	peerNode   int
	resolved   bool // wildcard resolved by status (src below)
	resolvedGr int  // resolved source (group rank)
	// send side
	gotRecvActive bool
	recvProc      int
	recvTS        int
	recvNode      int
	probeAcks     []RecvActive // probe requests awaiting our activation
	// comm completion (nonblocking p2p): the Rule 2/4 premise holds
	commComplete bool
	// collective
	wave      int
	collAcked bool
	retired   bool
	// commReported marks a communicator-creating collective whose CommInfo
	// (and so its registry report) was processed.
	commReported bool
}

// NewNode creates a tracker for the given hosted world ranks.
func NewNode(id int, hosted []int, nodeFor func(int) int, out Out) *Node {
	n := &Node{
		id:         id,
		nodeFor:    nodeFor,
		out:        out,
		ranks:      make(map[int]*rankState, len(hosted)),
		match:      p2pmatch.NewEngine(),
		coll:       collmatch.NewLeaf(id, len(hosted)),
		collOps:    make(map[collKey][]opRef),
		ackedEarly: make(map[collKey]bool),
		dirty:      make(map[int]bool),
		deadPeers:  make(map[int]bool),
		deadRanks:  make(map[int]bool),
		passSeen:   make(map[int]int),
		readySent:  make(map[collKey][]collmatch.Ready),
		pendPeer:   make(map[int][]any),
	}
	now := time.Now()
	for _, r := range hosted {
		n.ranks[r] = &rankState{
			rank:         r,
			ops:          make(map[int]*opState),
			reqs:         make(map[trace.ReqID]*reqRec),
			collSeq:      make(map[trace.CommID]int),
			lastTS:       -1,
			lastProgress: now,
		}
	}
	return n
}

// SetWatchdogQuiet configures the progress watchdog's quiet period (zero
// disables stall detection).
func (n *Node) SetWatchdogQuiet(d time.Duration) { n.quiet = d }

// ID returns the node's first-layer index.
func (n *Node) ID() int { return n.id }

// WindowHighWater returns the maximum number of simultaneously stored
// operations (the trace-window size of Sec. 4.2).
func (n *Node) WindowHighWater() int { return n.maxWindow }

// WindowSize returns the operations currently stored.
func (n *Node) WindowSize() int { return n.curWindow }

// Frozen reports whether the transition system is frozen for a snapshot.
func (n *Node) Frozen() bool { return n.frozen }

// peer sends a wait-state message to another first-layer node, recording it
// for the snapshot ping set and the message statistics.
func (n *Node) peer(node int, msg any) {
	n.dirty[node] = true
	switch msg.(type) {
	case PassSend:
		n.stats.PassSends++
	case RecvActive:
		n.stats.RecvActives++
	case RecvActiveAck:
		n.stats.RecvActiveAcks++
	}
	n.sendPeer(node, msg)
}

// sendPeer routes one intralayer message through the per-destination
// coalescing buffer; nothing leaves before FlushPeers. ALL peer traffic
// — wait-state messages and the snapshot Ping/Pong alike — must take this
// path: the consistent-state protocol's drain argument rests on per-link
// FIFO between them, which a Ping bypassing a buffered PassSend would break
// (the ping-pong would "prove" a message consumed that is still sitting in
// this node's buffer — a false-deadlock hazard).
func (n *Node) sendPeer(node int, msg any) {
	// Dedup by buffered length, not map presence: FlushPeers retains each
	// destination's (emptied) slice for reuse, so the key stays in the map
	// across cycles.
	msgs := n.pendPeer[node]
	if len(msgs) == 0 {
		n.pendDest = append(n.pendDest, node)
	}
	n.pendPeer[node] = append(msgs, msg)
}

// FlushPeers ships everything coalesced in the current delivery cycle: the
// bare message when a destination accumulated exactly one (so singleton
// traffic keeps its plain message shape on the wire), one Batch otherwise.
// The substrate calls it at the end of every cycle; recovery calls it
// before swapping output surfaces. No-op when nothing is pending.
func (n *Node) FlushPeers() {
	if len(n.pendDest) == 0 {
		return
	}
	for _, dest := range n.pendDest {
		msgs := n.pendPeer[dest]
		if len(msgs) == 1 {
			n.out.Peer(dest, msgs[0])
		} else {
			n.out.Peer(dest, Batch{FromNode: n.id, Msgs: append([]any(nil), msgs...)})
		}
		// Keep the per-destination slice for reuse; the stale references are
		// overwritten by the next cycle's appends.
		n.pendPeer[dest] = msgs[:0]
	}
	n.pendDest = n.pendDest[:0]
}

// Stats returns the node's tool-message counters.
func (n *Node) Stats() Stats { return n.stats }

// UnmatchedSends returns the number of sends destined to hosted ranks that
// never matched a receive — "lost messages" when read after the run.
func (n *Node) UnmatchedSends() int {
	total := 0
	for r := range n.ranks {
		total += n.match.PendingSends(r)
	}
	return total
}

func (n *Node) rank(r int) *rankState {
	rs := n.ranks[r]
	if rs == nil {
		panic(fmt.Sprintf("dws: node %d does not host rank %d", n.id, r))
	}
	return rs
}

// OnEvent processes one application event of a hosted rank. While the node
// is frozen for a consistent state, events are deferred: a snapshot must
// only reflect operations whose derived messages the ping-pong protocol
// covers, otherwise two operations arriving mid-snapshot on different nodes
// could be reported mutually blocked before their handshake ran — a false
// deadlock.
func (n *Node) OnEvent(ev event.Event) {
	if ev.Type == event.Heartbeat {
		// Pure watchdog bookkeeping: no transition-system state is touched,
		// so heartbeats are safe to absorb even while frozen (deferring them
		// would let a snapshot hide a stall).
		rs := n.rank(ev.Proc)
		rs.beatCalls = ev.TS
		return
	}
	if n.frozen {
		n.deferred = append(n.deferred, ev)
		return
	}
	n.processEvent(ev)
}

func (n *Node) processEvent(ev event.Event) {
	switch ev.Type {
	case event.Enter:
		n.newOp(ev.Op)
	case event.Status:
		n.onStatus(ev.Proc, ev.TS, ev.Src)
	case event.CommInfo:
		n.onCommInfo(ev.Proc, ev.TS, ev.Comm)
	case event.Done:
		rs := n.rank(ev.Proc)
		rs.done = true
		rs.lastProgress = time.Now()
	case event.RankDown:
		if first := n.OnRankDown(ev.Proc, ev.TS); first {
			n.out.Up(RankDown{Rank: ev.Proc, LastCall: ev.TS, Node: n.id})
		}
	}
}

// OnRankDown marks an application rank as crashed: its pending receives
// are tombstoned in the matching engine (mirroring the simulator's
// mailbox tombstone — the dead rank consumes nothing further, while its
// already-sent messages stay matchable) and, when hosted here, its window
// entries are dropped. Called for the local terminal event and for the
// root's rebroadcast; returns true the first time the rank is marked.
func (n *Node) OnRankDown(rank, lastCall int) bool {
	if n.deadRanks[rank] {
		return false
	}
	n.deadRanks[rank] = true
	n.match.DropRank(rank)
	if rs := n.ranks[rank]; rs != nil {
		rs.crashed = true
		rs.lastCall = lastCall
		for ts := range rs.ops {
			n.dropOp(rs, ts)
		}
	}
	return true
}

// newOp is Figure 7's newOp handler.
func (n *Node) newOp(op trace.Op) {
	rs := n.rank(op.Proc)
	rs.lastTS = op.TS
	rs.enters++
	rs.lastProgress = time.Now()
	o := &opState{op: op, peerProc: -1, resolvedGr: -1}
	rs.ops[op.TS] = o
	n.curWindow++
	if n.curWindow > n.maxWindow {
		n.maxWindow = n.curWindow
	}

	kind := op.Kind
	switch {
	case kind == trace.Finalize:
		// Terminal: no rule ever applies.

	case kind.IsSend():
		if !kind.Blocking() {
			o.canAdv = true
		}
		n.peer(n.nodeFor(op.PeerWorld), PassSend{
			SendProc: op.Proc, SendTS: op.TS,
			SrcGroup: op.SelfGroup,
			Dest:     op.PeerWorld, Tag: op.Tag, Comm: op.Comm,
			Kind: kind, FromNode: n.id,
		})
		if kind.IsNonBlockingP2P() {
			rs.reqs[op.Req] = &reqRec{ts: op.TS}
		}

	case kind == trace.Iprobe:
		// Iprobe does not block and does not constrain matching.
		o.canAdv = true

	case kind.IsRecv():
		if !kind.Blocking() {
			o.canAdv = true
		}
		if kind.IsNonBlockingP2P() {
			rs.reqs[op.Req] = &reqRec{ts: op.TS}
		}
		n.applyMatches(n.match.AddRecv(p2pmatch.RecvInfo{
			Proc: op.Proc, TS: op.TS, Src: op.Peer, Tag: op.Tag,
			Comm: op.Comm, Probe: kind.IsProbe(),
		}))

	case kind.IsCollective():
		wave := rs.collSeq[op.Comm]
		rs.collSeq[op.Comm] = wave + 1
		o.wave = wave
		k := collKey{op.Comm, wave}
		n.collOps[k] = append(n.collOps[k], opRef{op.Proc, op.TS})
		if n.ackedEarly[k] {
			o.collAcked = true
			o.canAdv = true
		}

	case kind.IsCompletion():
		if !kind.Blocking() {
			o.canAdv = true // Test family
		}

	default:
		o.canAdv = true
	}

	// applyMatches above may already have activated the operation through
	// tryAdvance; activate is not idempotent (it emits handshake messages),
	// so guard on the active flag.
	if op.TS == rs.l && !o.active {
		n.activate(rs, o)
	}
	n.tryAdvance(rs)
}

// onStatus is the wildcard-resolution handler: operation (proc, ts)
// received from group rank src.
func (n *Node) onStatus(proc, ts, src int) {
	rs := n.rank(proc)
	rs.lastProgress = time.Now()
	if o := rs.ops[ts]; o != nil {
		o.resolved = true
		o.resolvedGr = src
	}
	n.applyMatches(n.match.Resolve(proc, ts, src))
}

// onCommInfo reports a created communicator to the root's registry.
func (n *Node) onCommInfo(proc, ts int, newComm trace.CommID) {
	rs := n.rank(proc)
	o := rs.ops[ts]
	if o == nil {
		return
	}
	m := collmatch.Member{
		NewComm: newComm, Rank: proc,
		Parent: o.op.Comm, ParentWave: o.wave,
	}
	n.membersSent = append(n.membersSent, m)
	n.out.Up(m)
	o.commReported = true
	if o.retired {
		n.dropOp(rs, ts)
	}
}

// OnPeer dispatches an intralayer message. Batches unpack in send order.
func (n *Node) OnPeer(from int, msg any) {
	switch m := msg.(type) {
	case PassSend:
		n.handlePassSend(m)
	case RecvActive:
		n.handleRecvActive(m)
	case RecvActiveAck:
		n.handleRecvActiveAck(m)
	case Ping:
		n.sendPeer(m.FromNode, Pong{Round: m.Round, Epoch: m.Epoch, FromNode: n.id})
	case Pong:
		n.handlePong(m)
	case Batch:
		for _, sub := range m.Msgs {
			n.OnPeer(from, sub)
		}
	default:
		panic(fmt.Sprintf("dws: unexpected intralayer message %T", msg))
	}
}

// handlePassSend is Figure 7's handler: register the send with point-to-
// point matching; any produced match updates the receive and may trigger
// recvActive.
func (n *Node) handlePassSend(m PassSend) {
	if last, ok := n.passSeen[m.SendProc]; ok && m.SendTS <= last {
		return // duplicate across a crash-recovery incarnation boundary
	}
	n.passSeen[m.SendProc] = m.SendTS
	n.applyMatches(n.match.AddSend(p2pmatch.SendInfo{
		Proc: m.SendProc, TS: m.SendTS, Src: m.SrcGroup,
		Dest: m.Dest, Tag: m.Tag, Comm: m.Comm, Kind: m.Kind,
	}))
}

// applyMatches installs engine matches into the receive-side operation
// states (the receives are hosted on this node).
func (n *Node) applyMatches(ms []p2pmatch.Match) {
	for _, m := range ms {
		rs := n.rank(m.Recv.Proc)
		o := rs.ops[m.Recv.TS]
		if o == nil {
			continue // already retired (stale probe duplicate)
		}
		o.matched = true
		o.peerProc = m.Send.Proc
		o.peerTS = m.Send.TS
		o.peerNode = n.nodeFor(m.Send.Proc)
		if o.active {
			n.sendRecvActive(o)
		}
		n.tryAdvance(rs)
	}
}

// sendRecvActive notifies the send-hosting node that this (matched, active)
// receive/probe is active.
func (n *Node) sendRecvActive(o *opState) {
	n.peer(o.peerNode, RecvActive{
		SendProc: o.peerProc, SendTS: o.peerTS,
		RecvProc: o.op.Proc, RecvTS: o.op.TS,
		FromNode: n.id, Probe: o.op.Kind.IsProbe(),
	})
}

// handleRecvActive is Figure 7's handler on the send side.
func (n *Node) handleRecvActive(m RecvActive) {
	rs := n.rank(m.SendProc)
	o := rs.ops[m.SendTS]
	if o == nil {
		// The send already completed its handshake and was cleaned up; a
		// probe request can still arrive afterwards. Ack directly: the send
		// was certainly active.
		n.peer(m.FromNode, RecvActiveAck{RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		return
	}
	if m.Probe {
		if o.active {
			n.peer(m.FromNode, RecvActiveAck{RecvProc: m.RecvProc, RecvTS: m.RecvTS})
		} else {
			o.probeAcks = append(o.probeAcks, m)
		}
		return
	}
	o.gotRecvActive = true
	o.recvProc = m.RecvProc
	o.recvTS = m.RecvTS
	o.recvNode = m.FromNode
	if o.active {
		n.completeSendHandshake(rs, o)
	}
}

// completeSendHandshake acknowledges the receive and marks the send's
// premise satisfied.
func (n *Node) completeSendHandshake(rs *rankState, o *opState) {
	n.peer(o.recvNode, RecvActiveAck{RecvProc: o.recvProc, RecvTS: o.recvTS})
	o.commComplete = true
	if o.op.Kind.Blocking() {
		o.canAdv = true
	}
	n.markReqDone(rs, o)
	n.tryAdvance(rs)
}

// handleRecvActiveAck is Figure 7's handler on the receive side.
func (n *Node) handleRecvActiveAck(m RecvActiveAck) {
	rs := n.rank(m.RecvProc)
	o := rs.ops[m.RecvTS]
	if o == nil {
		return // probe acked twice or already cleaned up
	}
	o.commComplete = true
	if o.op.Kind.Blocking() {
		o.canAdv = true
	}
	n.markReqDone(rs, o)
	n.tryAdvance(rs)
}

// markReqDone flips the request record of a completed non-blocking
// communication and garbage-collects its window entry if already retired.
func (n *Node) markReqDone(rs *rankState, o *opState) {
	if !o.op.Kind.IsNonBlockingP2P() {
		return
	}
	if rec := rs.reqs[o.op.Req]; rec != nil {
		rec.done = true
	}
	if o.retired {
		n.dropOp(rs, o.op.TS)
	}
}

// OnCollAck applies a collectiveAck: every hosted operation of the wave can
// advance (Rule 3's premise holds globally).
func (n *Node) OnCollAck(a collmatch.Ack) {
	k := collKey{a.Comm, a.Wave}
	if len(n.collOps[k]) == len(n.ranks) {
		// Every hosted rank already issued its operation of this wave; no
		// late arrival can need the early-ack marker, so drop it (keeps the
		// marker map from growing by one entry per wave forever). Waves on
		// sub-communicators conservatively keep the marker.
		delete(n.ackedEarly, k)
	} else {
		n.ackedEarly[k] = true
	}
	for _, ref := range n.collOps[k] {
		rs := n.rank(ref.rank)
		if o := rs.ops[ref.ts]; o != nil {
			o.collAcked = true
			o.canAdv = true
			n.tryAdvance(rs)
		}
	}
	delete(n.collOps, k)
	delete(n.readySent, k)
}

// ResendReady re-emits every collective report not yet answered by an Ack
// and every communicator-registry report, after a tool-node crash
// (Resync): reports buffered inside the dead node are gone; the root
// deduplicates what did arrive and re-broadcasts Acks for waves it already
// completed.
func (n *Node) ResendReady() {
	for _, m := range n.membersSent {
		n.out.Up(m)
	}
	for _, rs := range n.readySent {
		for _, r := range rs {
			n.out.Up(r)
		}
	}
}

// activate is Figure 7's activate: the operation became the current
// operation of its process.
func (n *Node) activate(rs *rankState, o *opState) {
	o.active = true
	kind := o.op.Kind
	switch {
	case kind.IsCollective():
		r, emit, mism := n.coll.Activate(o.op.Comm, o.wave,
			o.op.Comm == trace.CommWorld, kind, o.op.Peer, o.op.Proc)
		if mism != nil {
			n.out.Up(*mism)
		}
		if emit {
			n.stats.CollReadys++
			k := collKey{o.op.Comm, o.wave}
			if !o.collAcked && !n.ackedEarly[k] {
				n.readySent[k] = append(n.readySent[k], r)
			}
			n.out.Up(r)
		}
	case kind.IsRecv() && kind != trace.Iprobe:
		if o.matched {
			n.sendRecvActive(o)
		}
	case kind.IsSend():
		for _, pa := range o.probeAcks {
			n.peer(pa.FromNode, RecvActiveAck{RecvProc: pa.RecvProc, RecvTS: pa.RecvTS})
		}
		o.probeAcks = nil
		if o.gotRecvActive {
			n.completeSendHandshake(rs, o)
		}
	}
}

// canAdvance evaluates whether the current operation may advance, including
// the completion rules (Rule 4) over the request records.
func (n *Node) canAdvance(rs *rankState, o *opState) bool {
	if o.canAdv {
		return true
	}
	if !o.op.Kind.IsCompletion() {
		return false
	}
	any := o.op.Kind.IsWaitAnySemantics()
	pending := 0
	for _, rq := range o.op.Reqs {
		rec := rs.reqs[rq]
		if rec == nil {
			continue // unknown/freed request: does not constrain
		}
		if rec.done {
			if any {
				return true
			}
			continue
		}
		pending++
	}
	if any {
		return pending == 0 // no live requests at all: returns immediately
	}
	return pending == 0
}

// tryAdvance applies transitions for one rank until none applies (or the
// node is frozen for a consistent state).
func (n *Node) tryAdvance(rs *rankState) {
	if n.frozen {
		return
	}
	for {
		o := rs.ops[rs.l]
		if o == nil || o.op.Kind == trace.Finalize {
			return
		}
		if !o.active {
			n.activate(rs, o)
		}
		if !n.canAdvance(rs, o) {
			return
		}
		n.retire(rs, o)
		rs.l++
		if next := rs.ops[rs.l]; next != nil && !next.active {
			n.activate(rs, next)
		}
	}
}

// retire marks an operation advanced-past and reclaims its window entry
// when nothing can still arrive for it.
func (n *Node) retire(rs *rankState, o *opState) {
	o.retired = true
	n.retiredOps++
	kind := o.op.Kind
	switch {
	case kind.IsNonBlockingP2P():
		// Keep until the match handshake finished (messages may still
		// arrive); completions use the request record afterwards.
		if o.commComplete {
			n.dropOp(rs, o.op.TS)
		}
	case kind == trace.CommDup || kind == trace.CommSplit:
		// The rank reports the created communicator only after the call
		// returned, so its CommInfo can trail the wave's Ack. Keep the op
		// (its parent comm and wave) until onCommInfo has reported the
		// membership; dropping it here would lose the report, and the root
		// could never seal the communicator.
		if o.commReported {
			n.dropOp(rs, o.op.TS)
		}
	case kind.IsCollective():
		n.dropOp(rs, o.op.TS)
	default:
		n.dropOp(rs, o.op.TS)
	}
}

func (n *Node) dropOp(rs *rankState, ts int) {
	if _, ok := rs.ops[ts]; ok {
		delete(rs.ops, ts)
		n.curWindow--
	}
}

// CurrentTS returns l_i for a hosted rank (test/debug accessor).
func (n *Node) CurrentTS(rank int) int { return n.rank(rank).l }

// Finished reports whether a hosted rank reached MPI_Finalize (or returned).
func (n *Node) Finished(rank int) bool {
	rs := n.rank(rank)
	if rs.done {
		return true
	}
	o := rs.ops[rs.l]
	return o != nil && o.op.Kind == trace.Finalize
}

// AllIdle reports whether every hosted rank is finished (used by drivers to
// detect clean termination).
func (n *Node) AllIdle() bool {
	for _, rs := range n.ranks {
		if rs.done {
			continue
		}
		o := rs.ops[rs.l]
		if o == nil || o.op.Kind != trace.Finalize {
			return false
		}
	}
	return true
}
