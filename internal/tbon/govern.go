package tbon

// This file is the tool plane's resource governor: byte accounting for
// every unbounded tool-internal buffer, rolled into one global budget, with
// credit-style backpressure toward the rank → leaf intake and honest
// overflow accounting when backpressure cannot help.
//
// The design splits tool traffic into two lanes:
//
//   - the control lane — snapshot/epoch control (Ping/Pong, Request*,
//     AbortSnapshot), supervision traffic (PeerDown, RankDown) and
//     collective resynchronization — is small, protocol-bounded, and always
//     admitted free of charge. Supervision and epoch recovery can therefore
//     never be starved by the governor, which is what makes the scheme
//     deadlock-free by construction;
//   - the data lane — dws wait-state traffic (PassSend, RecvActive,
//     RecvActiveAck, their Batch coalescing), collective aggregation
//     (Member/Ready/Ack) and wait reports — is charged byte-estimates while
//     resident in a queue or wire buffer.
//
// Tool-internal sends are never blocked either: a cyclic intralayer flow
// (A→B while B→A) must keep draining, so over-budget admissions are counted
// as overflow instead of refused — "never OOM, never a silent drop" becomes
// "bounded by backpressure, and honestly flagged overloaded when a pinned
// link defeats it". The only party the governor ever blocks is the
// application-side intake (Tree.inject / injectRemote), which is exactly
// the party EventBuf already throttles locally: when resident data-lane
// bytes cross the gate-engage threshold, ranks stop injecting until the
// tree drains back below the reopen threshold. The TCP fabric's per-leaf
// rank-event window (fab.win) is the per-link instance of the same credit
// mechanism; the governor adds the global byte-denominated one.
//
// Every tree is governed. A zero Config.MemBudget selects DefaultMemBudget;
// an "unbounded" tool is just one with a very large budget, not a separate
// code path.

import (
	"sync"
	"sync/atomic"

	"dwst/internal/collmatch"
	"dwst/internal/dws"
)

// Governed buffer classes. Up/Down/Peer mirror the fault.Class link taxonomy
// for the in-process queue pumps; Wire covers the TCP sendq buffers, which
// carry frames of every class toward one connection.
const (
	govUp = iota
	govDown
	govPeer
	govWire
	govClasses
)

// govClassNames keys the per-class high-water maps in stats output.
var govClassNames = [govClasses]string{"up", "down", "peer", "wire"}

// governor tracks resident data-lane bytes across every tool-plane buffer
// of one process against a global budget, engages the intake gate with
// hysteresis (engage at 3/4 budget, reopen at 1/2), and counts overflow —
// admissions that found the budget already exhausted — for the honest
// overload verdict.
type governor struct {
	budget int64 // bytes; always > 0
	hi     int64 // gate engages at used >= hi
	lo     int64 // gate reopens at used <= lo

	used      atomic.Int64
	highWater atomic.Int64
	overflow  atomic.Uint64
	gated     atomic.Uint64 // intake admissions that had to wait

	classBytes   [govClasses]atomic.Int64
	classBytesHW [govClasses]atomic.Int64
	classDepth   [govClasses]atomic.Int64
	classDepthHW [govClasses]atomic.Int64

	mu   sync.Mutex
	gate chan struct{} // nil = open; non-nil = engaged, closed on reopen
}

func newGovernor(budget int64) *governor {
	return &governor{budget: budget, hi: budget / 4 * 3, lo: budget / 2}
}

func maxStore(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// charge accounts n resident bytes of class (data lane only; callers skip
// zero-cost control messages). Never blocks: an over-budget charge is an
// overflow event, not a refusal.
func (g *governor) charge(class int, n int64) {
	u := g.used.Add(n)
	maxStore(&g.highWater, u)
	maxStore(&g.classBytesHW[class], g.classBytes[class].Add(n))
	maxStore(&g.classDepthHW[class], g.classDepth[class].Add(1))
	if u > g.budget {
		g.overflow.Add(1)
	}
	if u >= g.hi {
		g.engage()
	}
}

// release returns n bytes of class to the budget, reopening the intake
// gate once usage drains below the hysteresis floor.
func (g *governor) release(class int, n int64) {
	g.classDepth[class].Add(-1)
	g.classBytes[class].Add(-n)
	if g.used.Add(-n) <= g.lo {
		g.reopen()
	}
}

func (g *governor) engage() {
	g.mu.Lock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *governor) reopen() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

// admitIntake blocks the caller while the intake gate is engaged. It
// returns false when quit closed (the tree is stopping); a closed dead
// channel releases the waiter too, so the caller's own dead-node handling
// runs instead of a stuck gate wait. Only the rank → leaf intake calls
// this — tool-internal traffic is never gated.
func (g *governor) admitIntake(dead, quit <-chan struct{}) bool {
	for {
		g.mu.Lock()
		ch := g.gate
		g.mu.Unlock()
		if ch == nil {
			return true
		}
		g.gated.Add(1)
		select {
		case <-ch:
		case <-dead:
			return true
		case <-quit:
			return false
		}
	}
}

// gateEngaged reports whether the intake gate is currently closed (tests).
func (g *governor) gateEngaged() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gate != nil
}

// GovernorStats is a point-in-time snapshot of one process's tool-plane
// resource accounting.
type GovernorStats struct {
	// Budget is the configured byte budget.
	Budget int64
	// Used and HighWater are resident data-lane bytes: current, and the
	// run's maximum.
	Used, HighWater int64
	// Overflow counts admissions that found the budget exhausted despite
	// backpressure (a pinned link holding buffered frames); any overflow
	// marks the run overloaded.
	Overflow uint64
	// Gated counts rank-intake admissions that had to wait for the gate.
	Gated uint64
	// QueueDepthHW and QueueBytesHW are per-class high-water marks of the
	// governed buffers (messages and bytes), keyed up/down/peer/wire.
	QueueDepthHW map[string]int64
	QueueBytesHW map[string]int64
}

func (g *governor) stats() GovernorStats {
	s := GovernorStats{
		Budget:       g.budget,
		Used:         g.used.Load(),
		HighWater:    g.highWater.Load(),
		Overflow:     g.overflow.Load(),
		Gated:        g.gated.Load(),
		QueueDepthHW: make(map[string]int64, govClasses),
		QueueBytesHW: make(map[string]int64, govClasses),
	}
	for c := 0; c < govClasses; c++ {
		if hw := g.classDepthHW[c].Load(); hw > 0 {
			s.QueueDepthHW[govClassNames[c]] = hw
		}
		if hw := g.classBytesHW[c].Load(); hw > 0 {
			s.QueueBytesHW[govClassNames[c]] = hw
		}
	}
	return s
}

// Per-message resident-byte estimates. These price the dominant cost of a
// buffered tool message — the Go object graph held live while it waits in
// a queue — not its wire encoding; exact sizes matter less than every
// buffered message paying a plausible, nonzero toll.
const (
	envCostOverhead = 96 // envelope + timed slot + frame bookkeeping
	msgCostDefault  = 128
	msgCostEntry    = 256 // one WaitEntry with its slices
)

// envCost prices one queued envelope for the data lane: 0 for control-lane
// messages (always admitted free), envelope overhead plus a per-type
// estimate otherwise. Transport frames are unwrapped first, so the same
// message costs the same with and without the reliable layer.
func envCost(msg any) int64 {
	c := msgCost(innerMsg(msg))
	if c == 0 {
		return 0
	}
	return envCostOverhead + c
}

func msgCost(msg any) int64 {
	switch m := msg.(type) {
	// Control lane: snapshot/epoch control, supervision, collective
	// resynchronization. Protocol-bounded traffic that must never be
	// starved or charged — see the package comment.
	case dws.Ping, dws.Pong, dws.RequestConsistentState, dws.AckConsistentState,
		dws.RequestWaits, dws.AbortSnapshot, dws.PeerDown, dws.RankDown,
		collmatch.Resync:
		return 0
	// Data lane: the paper's wait-state and aggregation traffic.
	case dws.PassSend:
		return 96
	case dws.RecvActive:
		return 80
	case dws.RecvActiveAck:
		return 48
	case dws.Batch:
		c := int64(64)
		for _, inner := range m.Msgs {
			mc := msgCost(inner)
			if mc == 0 {
				mc = 32 // control riding a batch still occupies the slice slot
			}
			c += mc + 16
		}
		return c
	case dws.WaitReport:
		return 96 + int64(len(m.Entries))*msgCostEntry
	case dws.WaitEntry:
		return msgCostEntry
	default:
		return msgCostDefault
	}
}
