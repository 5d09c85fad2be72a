package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dwst/mpi"
	"dwst/must"
)

// Workload sizes. They are part of the benchmark's definition: changing one
// changes every reading, so a new size is a new baseline.
const (
	stressProcs = 128 // Fig. 9 stress on the in-process transport
	stressIters = 100
	stormProcs  = 512 // Fig. 10 wildcard storm
	stormRounds = 4   // seeded ring rounds before the storm
	barrierGap  = 10  // stress issues a Barrier every barrierGap iterations
)

// workload is one named benchmark input: the MPI program every op runs, the
// reference program whose stand-alone mpi.Run time is the base of slowdown,
// and the verdict every op must reach.
type workload struct {
	name     string
	procs    int
	deadlock bool // expected verdict: a deadlock of every rank (else none)
	prog     mpi.Program
	ref      mpi.Program
	// calls is the number of MPI calls one op's program issues (counted by
	// mpi.Record during set-up): the base of calls_per_s.
	calls int
}

// workloadNames are the workloads, in BENCHMARK.json's order.
var workloadNames = []string{"stress", "wildcard_storm"}

// newWorkload builds the named workload's inputs from seed. The seed
// chooses the ring order; the amount of work does not depend on it.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "stress":
		w.procs = stressProcs
		w.prog = stressProgram(ringOrder(stressProcs, seed), stressIters)
		w.ref = w.prog
	case "wildcard_storm":
		w.procs, w.deadlock = stormProcs, true
		ring := ringOrder(stormProcs, seed)
		w.prog = stormProgram(ring, stormRounds, true)
		// The storm never completes on its own; the reference is the
		// application work that precedes the hang.
		w.ref = stormProgram(ring, stormRounds, false)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, ops := range mpi.Record(w.procs, w.prog).Ops {
		w.calls += len(ops)
	}
	return w, nil
}

// ring is a seeded cyclic order of the ranks: right[r] follows r, left[r]
// precedes it.
type ring struct{ right, left []int }

func ringOrder(n int, seed int64) ring {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	rg := ring{right: make([]int, n), left: make([]int, n)}
	for i, r := range perm {
		rg.right[r] = perm[(i+1)%n]
		rg.left[r] = perm[(i+n-1)%n]
	}
	return rg
}

// stressProgram is the paper's Fig. 9 cyclic exchange along rg: every
// iteration each rank sends one integer to its right neighbour and receives
// one from its left (MPI_Sendrecv); every barrierGap-th iteration adds an
// MPI_Barrier.
func stressProgram(rg ring, iters int) mpi.Program {
	return func(p *mpi.Proc) {
		r := p.Rank()
		buf := mpi.Int64(int64(r))
		for i := 0; i < iters; i++ {
			p.Sendrecv(buf, rg.right[r], 0, rg.left[r], 0, mpi.CommWorld)
			if (i+1)%barrierGap == 0 {
				p.Barrier(mpi.CommWorld)
			}
		}
		p.Finalize()
	}
}

// stormProgram runs rounds ring exchanges along rg so the tool has matching
// history, then — with storm set — has every rank post MPI_Recv(ANY_SOURCE)
// with no send to match it: the paper's Fig. 10 case, an OR wait-for graph
// of p(p−1) arcs. Without storm the ranks finalize after the rounds.
func stormProgram(rg ring, rounds int, storm bool) mpi.Program {
	return func(p *mpi.Proc) {
		r := p.Rank()
		buf := mpi.Int64(int64(r))
		for i := 0; i < rounds; i++ {
			p.Sendrecv(buf, rg.right[r], 0, rg.left[r], 0, mpi.CommWorld)
		}
		if storm {
			p.Recv(mpi.AnySource, mpi.AnyTag, mpi.CommWorld)
		}
		p.Finalize()
	}
}

// options are the settings a user of mustrun or the analysis service gets
// by default: fan-in 4, 50ms quiescence timeout, the default tool-plane
// memory budget, batching on, the WFG reference engine, no fault plan.
func (w *workload) options() must.Options {
	return must.Options{
		FanIn:     4,
		Timeout:   50 * time.Millisecond,
		MemBudget: must.DefaultMemBudget,
		Batch:     must.BatchOn,
		Engine:    "wfg",
	}
}

// check is the verdict oracle: nil when rep is the correct outcome of one
// op of w, otherwise the first thing wrong with it. Degraded outcomes
// (Err, Partial, Overloaded, dropped detection results) are failures even
// when the verdict happens to be right.
func (w *workload) check(rep *must.Report) error {
	switch {
	case rep == nil:
		return fmt.Errorf("no report")
	case rep.Err != nil:
		return fmt.Errorf("run failed: %v", rep.Err)
	case rep.Overloaded:
		return fmt.Errorf("tool plane overloaded (%d overflow events)", rep.OverflowEvents)
	case rep.Partial:
		return fmt.Errorf("partial report (unknown ranks %v)", rep.UnknownRanks)
	case rep.DroppedResults > 0:
		return fmt.Errorf("%d detection results dropped", rep.DroppedResults)
	case len(rep.EngineDeviations) > 0:
		return fmt.Errorf("engine deviations: %v", rep.EngineDeviations)
	case len(rep.CallMismatches) > 0:
		return fmt.Errorf("collective mismatches: %v", rep.CallMismatches)
	}
	if !w.deadlock {
		switch {
		case rep.Verdict != must.VerdictNone || rep.Deadlock:
			return fmt.Errorf("verdict %v (deadlock=%v potential=%v), want none", rep.Verdict, rep.Deadlock, rep.PotentialOnly)
		case rep.AppAborted:
			return fmt.Errorf("application aborted: %v", rep.AbortCause)
		case rep.LostMessages != 0:
			return fmt.Errorf("%d lost messages, want 0", rep.LostMessages)
		}
		return nil
	}
	p := w.procs
	switch {
	case rep.Verdict != must.VerdictDeadlock || !rep.Deadlock:
		return fmt.Errorf("verdict %v (deadlock=%v), want deadlock", rep.Verdict, rep.Deadlock)
	case rep.PotentialOnly || !rep.AppAborted:
		return fmt.Errorf("deadlock did not abort the application (potential-only=%v)", rep.PotentialOnly)
	case rep.Arcs != p*(p-1):
		return fmt.Errorf("%d wait-for arcs, want p(p-1) = %d", rep.Arcs, p*(p-1))
	case len(rep.Deadlocked) != p:
		return fmt.Errorf("%d deadlocked ranks, want %d", len(rep.Deadlocked), p)
	}
	for i, r := range rep.Deadlocked {
		if r != i {
			return fmt.Errorf("deadlocked ranks %v, want 0..%d", rep.Deadlocked, p-1)
		}
	}
	return nil
}
