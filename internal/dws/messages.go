// Package dws implements the paper's contribution: distributed wait state
// tracking on the first layer of the TBON (Section 4). Each first-layer
// node tracks the transition-system state components of its hosted ranks,
// exchanging the intralayer messages of Figure 6/7 (passSend, recvActive,
// recvActiveAck) with peer nodes and the aggregated collective messages
// (collectiveReady, collectiveAck) with the tree, and participates in the
// consistent-state protocol of Section 5 (Figure 8).
package dws

import (
	"dwst/internal/collmatch"
	"dwst/internal/trace"
)

// PassSend passes information on a send operation to the node hosting the
// matching receive (paper Sec. 4.1). It carries the point-to-point matching
// key and the send's identity (the timestamp l_s).
type PassSend struct {
	SendProc int // sender world rank
	SendTS   int
	SrcGroup int // sender's group rank within Comm (matching key)
	Dest     int // destination world rank
	Tag      int
	Comm     trace.CommID
	Kind     trace.Kind
	FromNode int
}

// RecvActive informs the node hosting a send that the matching receive is
// active (satisfying Rule 2's premise for the sender). Probe marks requests
// from probes: the send acknowledges them when active (so the probe can
// advance) but they do not satisfy the send's own Rule 2 premise — only the
// real receive does.
type RecvActive struct {
	SendProc int
	SendTS   int
	RecvProc int
	RecvTS   int
	FromNode int
	Probe    bool
}

// RecvActiveAck informs the node hosting a receive that the matching send is
// active (satisfying Rule 2's premise for the receiver).
type RecvActiveAck struct {
	RecvProc int
	RecvTS   int
}

// Batch coalesces the intralayer messages one node sent to one destination
// within a single delivery cycle (passSend / recvActive / recvActiveAck,
// plus any snapshot ping-pong interleaved with them — the per-link FIFO
// order between wait-state and Ping/Pong traffic is load-bearing for the
// consistent-state protocol, so every peer message rides the same buffer).
// Receivers unpack in order in OnPeer; senders emit it from FlushPeers.
type Batch struct {
	FromNode int
	Msgs     []any
}

// Ping and Pong implement the double ping-pong synchronization of the
// consistent-state protocol (Figure 8). Round is 1 for the first exchange
// and 2 for the second. Epoch tags the snapshot attempt the exchange
// belongs to, so stale messages of an aborted attempt are discarded.
type Ping struct {
	Round    int
	Epoch    int
	FromNode int
}

// Pong answers a Ping of the same round and epoch.
type Pong struct {
	Round    int
	Epoch    int
	FromNode int
}

// RequestConsistentState is broadcast from the root to freeze the wait-state
// transition system and start the ping-pong synchronization. Epoch is the
// root's snapshot attempt counter: requests for an epoch the node already
// saw are ignored, requests for a newer epoch restart the synchronization.
type RequestConsistentState struct{ Epoch int }

// AckConsistentState reports (upward) that first-layer node Node finished
// its ping-pong synchronizations for the given snapshot epoch.
type AckConsistentState struct {
	Node  int
	Epoch int
}

// RequestWaits is broadcast after all acks: nodes reply with the wait-for
// conditions of their blocked processes and resume the transition system.
// Nodes frozen under a different epoch ignore it.
type RequestWaits struct{ Epoch int }

// AbortSnapshot is broadcast when a snapshot attempt missed its deadline
// (messages lost beyond what retransmission healed, or a node died
// mid-protocol): nodes frozen under this epoch resume the transition
// system; the root retries with a fresh epoch.
type AbortSnapshot struct{ Epoch int }

// PeerDown is broadcast after first-layer node Node was declared dead:
// surviving nodes drop it from snapshot synchronization (a dead peer can
// never pong) and future snapshots skip it.
type PeerDown struct{ Node int }

// RankDown reports the death of an *application* rank. The hosting node
// sends it upward when it processes the rank's terminal RankDown event;
// the root records the death (for verdict classification) and rebroadcasts
// the same message down, so every first-layer node marks the rank crashed
// and tombstones its pending receives. Idempotent: duplicates (crash
// replay across a tool-node death) are absorbed.
type RankDown struct {
	Rank     int
	LastCall int // MPI calls the rank completed before dying
	Node     int // first-layer node hosting the rank
}

// ProcState classifies a rank in a consistent state.
type ProcState int

const (
	// Running: the rank has an applicable transition (or its next event has
	// not reached the tool), so it is not blocked.
	Running ProcState = iota
	// Blocked: no transition applies to the rank's current operation.
	Blocked
	// Finished: the rank reached MPI_Finalize.
	Finished
	// Unknown: the tool node hosting the rank crashed; its wait state is
	// unavailable and reports including it are partial.
	Unknown
	// Crashed: the application rank itself died (injected rank crash). Its
	// cause is *known*, unlike Unknown: the rank can never progress, so it
	// is modeled as a permanently blocked sink in the WFG.
	Crashed
	// Stalled: the progress watchdog saw the rank alive but issuing no MPI
	// calls past the configured quiet period. The rank may still resume,
	// so it is reported but never entered into the WFG.
	Stalled
)

// Sem mirrors waitstate semantics without importing it (AND = all targets,
// OR = any target).
type Sem int

const (
	// SemAnd requires all targets to progress.
	SemAnd Sem = iota
	// SemOr requires one target to progress.
	SemOr
)

// WaitEntry is one rank's wait-for condition in a consistent state, shipped
// to the root by RequestWaits. Targets are world ranks; conditions the node
// cannot expand locally (wildcards on communicators, collectives) carry
// markers the root expands with its group registry.
type WaitEntry struct {
	Rank  int
	State ProcState

	// Blocked-state details.
	Kind trace.Kind
	TS   int
	Sem  Sem
	Desc string

	// LastCall is the number of MPI calls a Crashed rank completed before
	// dying (meaningful only for State == Crashed; distinct from TS, which
	// is an event timestamp).
	LastCall int

	// Direct wait-for targets (world ranks).
	Targets []int

	// WildComms adds, per entry, "every member of that communicator except
	// Rank" to the targets (unresolved wildcard receives).
	WildComms []trace.CommID

	// ResolvedSrcs adds the world rank of each (comm, group rank) pair
	// (wildcards resolved by a status whose matching send has not reached
	// the node yet); the root performs the group translation.
	ResolvedSrcs []GroupRef

	// Collective wait: root expands to group minus the ranks blocked in the
	// same wave.
	IsColl   bool
	CollComm trace.CommID
	CollWave int

	// Unexpected-match analysis (Sec. 3.3): details of a blocked wildcard
	// receive and its recorded match, plus blocked sends are found on other
	// entries by the root.
	IsWildcardRecv  bool
	Comm            trace.CommID
	Tag             int
	MatchedSendProc int // -1 if unmatched
	MatchedSendTS   int
}

// GroupRef names a group rank within a communicator; the root translates it
// to a world rank using its registry.
type GroupRef struct {
	Comm trace.CommID
	Src  int
}

// WaitReport carries the wait entries of one first-layer node to the root.
// UnmatchedSends counts sends to hosted ranks that never matched a receive
// (lost messages, when gathered after the application finished). Epoch is
// the snapshot attempt the report belongs to.
type WaitReport struct {
	Node           int
	Epoch          int
	Entries        []WaitEntry
	UnmatchedSends int
}

// Member re-exports the collective registry message for convenience.
type Member = collmatch.Member

// Ready re-exports the collectiveReady message.
type Ready = collmatch.Ready

// Ack re-exports the collectiveAck message.
type Ack = collmatch.Ack
