// Package must is the public entry point of the runtime deadlock detection
// tool — a Go reproduction of MUST with the distributed wait state tracking
// of Hilbrich et al., "Distributed Wait State Tracking for Runtime MPI
// Deadlock Detection" (SC '13).
//
// It runs an mpi.Program under one of two tool architectures:
//
//   - Distributed (the paper's contribution, Figure 1(b)): a tree-based
//     overlay network whose first layer performs distributed point-to-point
//     matching and wait-state tracking; collectives are matched over the
//     whole tree; only the rare, timeout-triggered graph search runs
//     centrally at the root.
//   - Centralized (the prior architecture, Figure 1(a)): a single tool
//     process that receives all events and rescans the wait-state
//     transition system after each operation.
//
// Both detect actual deadlocks precisely (aborting the application and
// producing an HTML report plus a DOT wait-for graph) and flag *potential*
// deadlocks that did not manifest because the MPI implementation buffered
// sends — the strict interpretation of MPI blocking semantics from
// Section 3.3 of the paper.
package must

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dwst/internal/centralized"
	"dwst/internal/core"
	"dwst/internal/detect"
	"dwst/internal/engine"
	"dwst/internal/fault"
	"dwst/internal/mpisim"
	"dwst/internal/tbon"
	"dwst/mpi"
)

// FaultPlan re-exports fault.Plan so callers can describe link faults and
// tool-node crashes without importing internal packages.
type FaultPlan = fault.Plan

// FaultRule re-exports fault.Rule.
type FaultRule = fault.Rule

// Crash re-exports fault.Crash.
type Crash = fault.Crash

// RankCrash re-exports fault.RankCrash (application rank dies mid-run).
type RankCrash = fault.RankCrash

// RankStall re-exports fault.RankStall (application rank stops issuing
// MPI calls without blocking — sleep or livelock).
type RankStall = fault.RankStall

// NetOptions re-exports core.NetOptions: configuration of the coordinator
// side of a TCP-fabric run (Options.Net).
type NetOptions = core.NetOptions

// WorkerOptions re-exports core.WorkerOptions (RunWorker configuration).
type WorkerOptions = core.WorkerOptions

// NetControl re-exports core.NetControl: the orchestrator's handle into a
// running coordinator, used to mint recovery tokens for supervised worker
// respawns. Place one in NetOptions.Control before Run.
type NetControl = core.NetControl

// Verdict re-exports detect.Verdict, the run classification.
type Verdict = detect.Verdict

// Verdict values.
const (
	VerdictNone              = detect.VerdictNone
	VerdictDeadlock          = detect.VerdictDeadlock
	VerdictDeadlockByFailure = detect.VerdictDeadlockByFailure
	VerdictStalled           = detect.VerdictStalled
)

// Mode selects the tool architecture.
type Mode int

const (
	// Distributed is the paper's TBON architecture (default).
	Distributed Mode = iota
	// Centralized is the prior single-tool-process architecture.
	Centralized
)

// Batching once selected hot-path batching on the TBON: slab delivery on
// tool queues, per-destination coalescing of wait-state messages, and
// slab-level transport acknowledgements. Batching is now how the TBON
// always works.
//
// Deprecated: batching is unconditional; Options.Batch is ignored.
type Batching int

// BatchOn is the zero Batching value.
//
// Deprecated: batching is unconditional; Options.Batch is ignored.
const BatchOn Batching = 0

// PanicError re-exports mpisim.PanicError: the abort cause when a rank's
// program panicked. The simulator contains the panic to its own run, so an
// embedder multiplexing many runs in one process (the mustserve analysis
// service) survives a buggy program; check for it with errors.As on
// Report.AbortCause.
type PanicError = mpisim.PanicError

// DefaultMemBudget is the tool-plane byte budget a distributed run applies
// per process when Options.MemBudget is zero: generous enough that healthy
// runs never approach it (the high-water of the paper's workloads is orders
// of magnitude below), small enough that a pinned link under an event storm
// degrades the run long before the OS would kill the process.
const DefaultMemBudget = tbon.DefaultMemBudget

// Options configures a tool run.
type Options struct {
	// Context, when non-nil, cancels the run from outside: on Done the
	// application world aborts with context.Cause, blocked ranks unwind,
	// and the tool tears down cleanly. External cancellation, per-session
	// deadlines, the tool's own deadlock/stall aborts, and mpi.Options.
	// HangTimeout all share one cancellation path — the simulated world's
	// abort. The cause is reported in Report.AbortCause.
	Context context.Context
	// Mode selects the tool architecture (default Distributed).
	Mode Mode
	// FanIn is the TBON fan-in (2, 4 or 8 in the paper; default 4).
	FanIn int
	// Timeout is the event-quiescence period before the root triggers
	// graph-based detection (default 50ms).
	Timeout time.Duration
	// PreferWaitState prioritizes wait-state messages over new application
	// events on first-layer nodes (the paper's Sec. 4.2 future-work option
	// for bounding the trace window).
	PreferWaitState bool
	// EventBuf is the application→tool link depth (backpressure).
	EventBuf int
	// LinkDelay injects a per-message delay on tool-internal links
	// (fault injection for robustness testing).
	LinkDelay time.Duration
	// Fault injects link faults (message drop / duplication / reordering /
	// jitter / stalls) and tool-node crashes into the TBON; nil (the
	// default) runs fault-free. Distributed mode only.
	Fault *FaultPlan
	// SnapshotDeadline bounds one consistent-state attempt before the root
	// aborts and retries it under a fresh epoch (default 2s). Distributed
	// mode only.
	SnapshotDeadline time.Duration
	// WatchdogQuiet enables the progress watchdog: a rank that is alive,
	// not blocked in MPI, and issues no call for longer than this period is
	// flagged Stalled. Zero (the default) disables the watchdog and its
	// heartbeat traffic entirely. Distributed mode only.
	WatchdogQuiet time.Duration
	// Batch selected hot-path batching (see Batching).
	//
	// Deprecated: batching is unconditional; the field is ignored.
	Batch Batching
	// Engine selects the verdict engine at the detection root: "" or "wfg"
	// (the reference WFG release fixpoint), "cmh" (Chandy–Misra–Haas
	// probes), or "all" (run every applicable engine; the reference verdict
	// wins). Distributed mode only.
	Engine string
	// Differential runs every applicable detection engine on each snapshot
	// plus the static pre-run queue-matching pass, records their verdicts
	// in Report.EngineVerdicts, and reports disagreements with the WFG
	// reference in Report.EngineDeviations — the standing differential
	// oracle. Distributed mode only.
	Differential bool
	// Net, when non-nil, runs the distributed tool over real TCP sockets:
	// this process is the coordinator and Net.Workers separate worker
	// processes (started via RunWorker, typically the mustnode binary) own
	// the first tool layer. Distributed mode only; mutually exclusive with
	// Fault — over real sockets the adversary is the wire.
	Net *NetOptions
	// MemBudget bounds resident tool-plane buffer bytes per process: dws
	// data traffic is byte-accounted across the tool's
	// internal queues (and TCP send buffers), backpressure propagates to
	// the rank → tool intake when buffers approach the budget, and genuine
	// exhaustion (a stalled link pinning frames) degrades the run honestly
	// — Report.Overloaded + Partial — instead of growing without limit.
	// Control traffic (heartbeats, snapshot/epoch control, supervision) is
	// never charged or gated, so supervision cannot be starved. Zero (the
	// default) means DefaultMemBudget. Distributed mode only.
	MemBudget int64

	// TrackCallSites records the application source line of every MPI call
	// so wait-for conditions and reports point at code (one runtime.Caller
	// lookup per call).
	TrackCallSites bool

	// Application/runtime semantics.
	Rendezvous               bool // standard sends block until matched
	BufferSlots              int
	BufferedSendCost         int
	SsendEvery               int // every n-th standard send synchronous
	SynchronizingCollectives bool
}

// Timings is the detection-phase breakdown of Figures 10(b)/11(b).
type Timings struct {
	Synchronization  time.Duration
	WFGGather        time.Duration
	GraphBuild       time.Duration
	DeadlockCheck    time.Duration
	OutputGeneration time.Duration
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.Synchronization + t.WFGGather + t.GraphBuild + t.DeadlockCheck + t.OutputGeneration
}

// Report is the outcome of a tool run.
type Report struct {
	// Deadlock reports whether a deadlock was found.
	Deadlock bool
	// PotentialOnly is set when the application completed but the strict
	// blocking model revealed a deadlock (e.g. unbuffered send–send).
	PotentialOnly bool
	// Deadlocked, Blocked and Cycle identify the affected ranks.
	Deadlocked []int
	Blocked    []int
	Cycle      []int
	// Groups decomposes the deadlocked set into independent deadlock
	// clusters (e.g. pairwise send-send deadlocks yield one group per pair).
	Groups [][]int
	// Conditions describes each blocked rank's wait-for condition.
	Conditions map[int]string
	// UnexpectedMatches counts Sec. 3.3 wildcard situations in the state.
	UnexpectedMatches int
	// Arcs is the wait-for graph size.
	Arcs int
	// HTML and DOT are the generated report artifacts.
	HTML string
	DOT  string
	// SimplifiedDOT is the class-compressed wait-for graph whose size is
	// proportional to the number of distinct wait patterns rather than to
	// p² (the paper's Sec. 6 graph-simplification direction); Summary is
	// its one-line description.
	SimplifiedDOT string
	Summary       string
	// Timings is the detection breakdown (Distributed mode only).
	Timings Timings

	// CallMismatches lists collective verification errors: participants of
	// one collective wave issued different operations or roots (one of
	// MUST's checks beyond deadlock detection).
	CallMismatches []string
	// LostMessages counts sends that never matched any receive; meaningful
	// when the application completed (AppAborted == false).
	LostMessages int

	// Verdict classifies the run: none, deadlock (a communication cycle),
	// deadlock-by-failure (waits unsatisfiable because ranks crashed), or
	// stalled (progress watchdog fired without a deadlock).
	Verdict Verdict
	// DeadRanks lists crashed application ranks; DeadLastCalls maps each to
	// its completed MPI call count; FailureBlocked lists the live ranks
	// transitively blocked on the failure.
	DeadRanks      []int
	DeadLastCalls  map[int]int
	FailureBlocked []int
	// StalledRanks lists ranks the progress watchdog flagged; WatchdogFires
	// counts detections that reported at least one stalled rank.
	StalledRanks  []int
	WatchdogFires int

	// EngineVerdicts maps each detection engine that ran to its verdict
	// string ("none", "deadlock", …, or "inapplicable"/"error: …"), merged over all detection rounds plus the static
	// pre-run pass. Nil unless Options.Engine or Options.Differential
	// asked for extra engines.
	EngineVerdicts map[string]string
	// EngineDeviations lists engine disagreements with the WFG reference
	// (differential mode; empty means every applicable engine agreed).
	EngineDeviations []string
	// DroppedResults counts completed detections the root could not
	// deliver to the driver within the delivery timeout (should be zero).
	DroppedResults int

	// Partial marks a degraded report: tool nodes hosting UnknownRanks
	// crashed, so those ranks' wait states are unknown (conservatively
	// modeled as permanently blocked).
	Partial      bool
	UnknownRanks []int
	// DroppedEvents counts application events lost because their hosting
	// tool node crashed (degraded-mode observation gap).
	DroppedEvents int
	// SnapshotRetries counts consistent-state attempts that missed
	// SnapshotDeadline and were retried under a fresh epoch.
	SnapshotRetries int
	// Retransmits and AbandonedFrames count reliable-transport activity on
	// tool links (zero without a fault plan or TCP fabric).
	Retransmits     uint64
	AbandonedFrames uint64
	// Reconnects, CodecErrors and BytesOnWire are TCP-fabric counters (zero
	// on the channel transport): accepted worker reconnections, malformed
	// or unencodable wire payloads, and total bytes moved on the wire.
	Reconnects  uint64
	CodecErrors uint64
	BytesOnWire uint64
	// Err is set when the run never executed: configuration rejected or the
	// TCP fabric failed to assemble (e.g. workers never connected). Tool
	// aborts of a running application (deadlock, stall) do NOT set Err.
	Err error
	// AbortCause is the cause the application was aborted with, when it
	// was: the tool's deadlock/stall abort, an Options.Context
	// cancellation cause, mpisim's hang watchdog, or a contained rank
	// panic (PanicError). Nil when the application completed on its own.
	AbortCause error

	// Recoveries counts crashed first-layer tool nodes that were respawned
	// and rebuilt exactly by journal replay (FaultPlan.Recover). A recovered
	// crash does NOT set Partial.
	Recoveries int
	// JournalHighWater is the largest live journal suffix observed on any
	// first-layer slot — bounded-memory evidence: with watermark GC it
	// tracks outstanding work, not run length.
	JournalHighWater int
	// ReplayedMsgs counts journal entries re-applied during recoveries;
	// ReplayTime is the total wall clock spent replaying.
	ReplayedMsgs int
	ReplayTime   time.Duration
	// WorkerRespawns counts worker processes re-admitted through the
	// supervised-respawn handshake (TCP fabric, NetOptions.Recover), and
	// ShippedJournalEntries the coordinator-journaled inputs shipped to
	// those fresh incarnations for replay. RespawnBackoff is the total
	// wall clock the orchestrator spent in respawn backoff delays.
	WorkerRespawns        uint64
	ShippedJournalEntries uint64
	RespawnBackoff        time.Duration

	// Resource-governance accounting (distributed mode). MemBudget echoes
	// the budget in force (DefaultMemBudget for a zero
	// Options.MemBudget); MemHighWater is the peak
	// resident tool-plane buffer bytes of any single process.
	// OverflowEvents counts budget-exhausted admissions and GatedWaits the
	// intake admissions that had to wait for backpressure. QueueDepthHW /
	// QueueBytesHW are per-link-class (up/down/peer/wire) high-water marks.
	// Overloaded marks a run whose budget was genuinely exhausted despite
	// backpressure (a stalled or dead link pinning buffered frames): the
	// report is then also Partial — honest degradation instead of
	// unbounded growth.
	MemBudget      int64
	MemHighWater   int64
	OverflowEvents uint64
	GatedWaits     uint64
	QueueDepthHW   map[string]int64
	QueueBytesHW   map[string]int64
	Overloaded     bool

	// Run statistics.
	Elapsed         time.Duration
	Detections      int
	ToolNodes       int
	WindowHighWater int
	AppAborted      bool
	// ToolMessages counts the wait-state messages the distributed tool
	// generated (passSend / recvActive / recvActiveAck / collectiveReady).
	ToolMessages ToolMessages
}

// ToolMessages is the distributed tool's message census.
type ToolMessages struct {
	PassSends      int
	RecvActives    int
	RecvActiveAcks int
	CollReadys     int
}

// Total sums all counters.
func (t ToolMessages) Total() int {
	return t.PassSends + t.RecvActives + t.RecvActiveAcks + t.CollReadys
}

// Run executes prog on procs ranks under the tool.
func Run(procs int, prog mpi.Program, opts Options) *Report {
	simProg := func(p *mpisim.Proc) { prog(mpi.NewProc(p)) }
	mode := mpisim.Eager
	if opts.Rendezvous {
		mode = mpisim.Rendezvous
	}

	if opts.Mode == Centralized {
		if opts.Engine != "" || opts.Differential {
			return &Report{Err: errors.New("must: engine selection and differential mode require the distributed architecture")}
		}
		res := centralized.Run(centralized.Config{
			Ctx:                      opts.Context,
			Procs:                    procs,
			Timeout:                  opts.Timeout,
			EventBuf:                 opts.EventBuf,
			SendMode:                 mode,
			BufferSlots:              opts.BufferSlots,
			BufferedSendCost:         opts.BufferedSendCost,
			SsendEvery:               opts.SsendEvery,
			SynchronizingCollectives: opts.SynchronizingCollectives,
			TrackCallSites:           opts.TrackCallSites,
		}, simProg)
		rep := &Report{
			Deadlock:          res.Deadlock,
			PotentialOnly:     res.Deadlock && res.AppErr == nil,
			Deadlocked:        res.Deadlocked,
			Blocked:           res.Blocked,
			Cycle:             res.Cycle,
			Groups:            res.Groups,
			Conditions:        res.Conditions,
			UnexpectedMatches: res.Unexpected,
			HTML:              res.HTML,
			DOT:               res.DOT,
			CallMismatches:    res.CallMismatches,
			LostMessages:      res.LostMessages,
			Elapsed:           res.Elapsed,
			Detections:        res.Detections,
			ToolNodes:         1,
			AppAborted:        res.AppErr != nil,
			AbortCause:        res.AppErr,
		}
		return rep
	}

	// Static pre-run pass (differential oracle leg): record the program's
	// call traces by sequential per-rank execution (nothing blocks in the
	// recorder) and run the Liao-style queue-matching simulation on the
	// deterministic subset. The finding is compared with the runtime
	// verdict after the run.
	var static *engine.Finding
	if opts.Differential || opts.Engine == "all" {
		ct := mpi.Record(procs, prog)
		v, dl, err := (engine.Static{}).Analyze(engine.Input{Trace: ct.Ops, TraceLimits: ct.Limits})
		static = &engine.Finding{Engine: "static", Verdict: v, Deadlocked: dl, Err: err}
	}

	res := core.Run(core.Config{
		Ctx:                      opts.Context,
		Procs:                    procs,
		FanIn:                    opts.FanIn,
		Timeout:                  opts.Timeout,
		EventBuf:                 opts.EventBuf,
		PreferWaitState:          opts.PreferWaitState,
		LinkDelay:                opts.LinkDelay,
		Fault:                    opts.Fault,
		SnapshotDeadline:         opts.SnapshotDeadline,
		WatchdogQuiet:            opts.WatchdogQuiet,
		MemBudget:                opts.MemBudget,
		Engine:                   opts.Engine,
		Differential:             opts.Differential,
		Net:                      opts.Net,
		SendMode:                 mode,
		BufferSlots:              opts.BufferSlots,
		BufferedSendCost:         opts.BufferedSendCost,
		SsendEvery:               opts.SsendEvery,
		SynchronizingCollectives: opts.SynchronizingCollectives,
		TrackCallSites:           opts.TrackCallSites,
	}, simProg)

	rep := &Report{
		Elapsed:               res.Elapsed,
		Detections:            res.Detections,
		ToolNodes:             res.ToolNodes,
		WindowHighWater:       res.WindowHighWater,
		AppAborted:            res.AppErr != nil,
		AbortCause:            res.AppErr,
		Verdict:               res.Verdict,
		DeadRanks:             res.DeadRanks,
		DeadLastCalls:         res.DeadLastCalls,
		FailureBlocked:        res.FailureBlocked,
		StalledRanks:          res.StalledRanks,
		WatchdogFires:         res.WatchdogFires,
		CallMismatches:        res.CallMismatches,
		LostMessages:          res.LostMessages,
		EngineVerdicts:        res.EngineVerdicts,
		EngineDeviations:      res.EngineDeviations,
		DroppedResults:        res.DroppedResults,
		Partial:               res.Partial,
		UnknownRanks:          res.UnknownRanks,
		DroppedEvents:         res.DroppedEvents,
		SnapshotRetries:       res.SnapshotRetries,
		Retransmits:           res.Retransmits,
		AbandonedFrames:       res.AbandonedFrames,
		Reconnects:            res.Reconnects,
		CodecErrors:           res.CodecErrors,
		BytesOnWire:           res.BytesOnWire,
		Recoveries:            res.Recoveries,
		JournalHighWater:      res.JournalHighWater,
		ReplayedMsgs:          res.ReplayedMsgs,
		ReplayTime:            res.ReplayTime,
		WorkerRespawns:        res.WorkerRespawns,
		ShippedJournalEntries: res.ShippedJournalEntries,
		MemBudget:             res.MemBudget,
		MemHighWater:          res.MemHighWater,
		OverflowEvents:        res.OverflowEvents,
		GatedWaits:            res.GatedWaits,
		QueueDepthHW:          res.QueueDepthHW,
		QueueBytesHW:          res.QueueBytesHW,
		Overloaded:            res.Overloaded,
		ToolMessages: ToolMessages{
			PassSends:      res.MsgStats.PassSends,
			RecvActives:    res.MsgStats.RecvActives,
			RecvActiveAcks: res.MsgStats.RecvActiveAcks,
			CollReadys:     res.MsgStats.CollReadys,
		},
	}
	if res.Failed {
		// The run never executed: AppErr is a configuration/fabric error,
		// not an application abort.
		rep.Err = res.AppErr
		rep.AppAborted = false
		rep.AbortCause = nil
	}
	if d := res.Deadlock; d != nil {
		fillFromDetect(rep, d)
		rep.PotentialOnly = res.AppErr == nil
	}
	if static != nil {
		if rep.EngineVerdicts == nil {
			rep.EngineVerdicts = make(map[string]string, 1)
		}
		rep.EngineVerdicts["static"] = static.VerdictString()
		if opts.Differential {
			if dev := staticDeviation(rep, static, opts); dev != "" {
				rep.EngineDeviations = append(rep.EngineDeviations, dev)
			}
		}
	}
	return rep
}

// staticDeviation compares the static pre-run finding with the runtime
// verdict. The static pass simulates the strict synchronous model on the
// recorded call sequences, so the contract is asymmetric:
//
//   - Static "none" with a runtime deadlock is always a deviation: the
//     strict model is the most blocking interpretation, so a program that
//     completes under it cannot deadlock at runtime.
//   - Static "deadlock" with runtime "none" is a deviation only under
//     Rendezvous semantics (then both sides evaluate the same model); with
//     eager sends it is the tool's documented potential-deadlock
//     prediction, not a disagreement.
//
// Runs that were interrupted, degraded, or perturbed at the application
// level (rank crashes, stalls, partial reports, config errors, external
// cancellation) are not compared — the runtime observed a different
// program than the recorder did.
func staticDeviation(rep *Report, static *engine.Finding, opts Options) string {
	if static.Err != nil {
		if errors.Is(static.Err, engine.ErrInapplicable) {
			return ""
		}
		return fmt.Sprintf("static: error: %v", static.Err)
	}
	interrupted := rep.AppAborted && !rep.Deadlock && rep.Verdict == VerdictNone
	if rep.Err != nil || rep.Partial || interrupted ||
		len(rep.DeadRanks) > 0 || len(rep.StalledRanks) > 0 ||
		(opts.Context != nil && opts.Context.Err() != nil) {
		return ""
	}
	switch {
	case static.Verdict == engine.VerdictNone && rep.Verdict == VerdictDeadlock:
		return fmt.Sprintf("static: verdict none, runtime found a deadlock %v", rep.Deadlocked)
	case opts.Rendezvous && static.Verdict == engine.VerdictDeadlock && rep.Verdict == VerdictNone:
		return fmt.Sprintf("static: predicted a deadlock %v under rendezvous semantics, runtime found none", static.Deadlocked)
	}
	return ""
}

// RunWorker runs one worker process of a TCP-fabric tool run: it dials the
// coordinator at addr, hosts its share of the first tool layer, and blocks
// until the coordinator shuts it down (nil) or the fabric fails permanently
// (error). The mustnode binary is a thin wrapper around this call.
func RunWorker(addr string, worker int, opts WorkerOptions) error {
	return core.RunWorker(addr, worker, opts)
}

func fillFromDetect(rep *Report, d *detect.Result) {
	rep.Deadlock = d.Deadlock
	rep.Deadlocked = d.Deadlocked
	rep.Blocked = d.Blocked
	rep.Cycle = d.Cycle
	rep.Groups = d.Groups
	rep.UnexpectedMatches = len(d.UnexpectedMatches)
	rep.Arcs = d.Arcs
	rep.HTML = d.HTML
	rep.DOT = d.DOT
	rep.SimplifiedDOT = d.SimplifiedDOT
	rep.Summary = d.Summary
	rep.Timings = Timings{
		Synchronization:  d.Timings.Synchronization,
		WFGGather:        d.Timings.WFGGather,
		GraphBuild:       d.Timings.GraphBuild,
		DeadlockCheck:    d.Timings.DeadlockCheck,
		OutputGeneration: d.Timings.OutputGeneration,
	}
	rep.Conditions = make(map[int]string, len(d.Entries))
	for r, e := range d.Entries {
		rep.Conditions[r] = e.Desc
	}
}
