package fault_test

// Differential-oracle suite: every run executes all applicable detection
// engines (the WFG reference and the Chandy–Misra–Haas probe engine) on
// the same wait-state snapshots, plus the static
// pre-run queue-matching pass, and any disagreement with the reference is
// a hard failure. The census runs the three canonical workloads across
// many seeds fault-free (the paper's equivalence bar), and a second leg
// re-checks agreement while the fault plane batters the tool links — the
// oracle must hold on degraded-but-healed runs too.

import (
	"testing"
	"time"

	"dwst/internal/testseed"
	"dwst/internal/workload"
	"dwst/must"
)

func assertNoDeviation(t *testing.T, rep *must.Report) {
	t.Helper()
	if rep.Err != nil {
		t.Fatalf("run failed: %v", rep.Err)
	}
	for _, d := range rep.EngineDeviations {
		t.Errorf("engine deviation: %s", d)
	}
	if t.Failed() {
		t.Fatalf("engine verdicts: %v", rep.EngineVerdicts)
	}
	if len(rep.EngineVerdicts) == 0 {
		t.Fatal("differential run recorded no engine verdicts")
	}
	if rep.DroppedResults != 0 {
		t.Fatalf("dropped %d detection results", rep.DroppedResults)
	}
}

// TestDifferentialFaultFreeCensus is the acceptance census: the three
// canonical workloads across many timing seeds (LinkDelay varies the
// interleaving), every applicable engine agreeing with the reference on
// every detection — zero deviations, every run.
func TestDifferentialFaultFreeCensus(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(30)
	if testing.Short() {
		hi = 5
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				rep := runBounded(t, c.procs, c.prog, must.Options{
					FanIn:        c.fanIn,
					Timeout:      20 * time.Millisecond,
					LinkDelay:    time.Duration(seed%5) * 100 * time.Microsecond,
					Differential: true,
				})
				if !rep.Deadlock {
					t.Fatalf("seed %d: expected a deadlock, verdicts %v", seed, rep.EngineVerdicts)
				}
				assertNoDeviation(t, rep)
				if v := rep.EngineVerdicts["cmh"]; v != "deadlock" {
					t.Fatalf("seed %d: cmh verdict %q", seed, v)
				}
			})
		})
	}
}

// TestDifferentialCleanRun: a deadlock-free workload under the oracle —
// every engine must agree there is nothing to report, and the static
// pass must accept the deterministic Sendrecv trace.
func TestDifferentialCleanRun(t *testing.T) {
	rep := runBounded(t, 6, workload.Stress(30), must.Options{
		FanIn:        2,
		Timeout:      20 * time.Millisecond,
		Differential: true,
	})
	if rep.Deadlock || rep.Verdict != must.VerdictNone {
		t.Fatalf("clean run reported %v", rep.Verdict)
	}
	assertNoDeviation(t, rep)
	if v := rep.EngineVerdicts["static"]; v != "none" {
		t.Fatalf("static verdict %q, want none (trace is deterministic)", v)
	}
}

// TestChaosDifferentialLinkFaults is the faulted leg: drop, dup, reorder
// and jitter on every tool link with the differential oracle armed. The
// reliable transport heals the faults, so every engine must still agree.
func TestChaosDifferentialLinkFaults(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(30)
	if testing.Short() {
		hi = 3
	}
	for _, c := range chaosCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
				t.Parallel()
				rep := runBounded(t, c.procs, c.prog, must.Options{
					FanIn:        c.fanIn,
					Timeout:      20 * time.Millisecond,
					Differential: true,
					Fault: &must.FaultPlan{
						Seed: seed,
						Rules: []must.FaultRule{{
							Drop:      0.01,
							Dup:       0.01,
							Reorder:   0.05,
							JitterMax: 2 * time.Millisecond,
						}},
					},
				})
				if !rep.Deadlock {
					t.Fatalf("seed %d: expected a deadlock, verdicts %v", seed, rep.EngineVerdicts)
				}
				assertNoDeviation(t, rep)
			})
		})
	}
}

// TestChaosDifferentialRankCrash: deadlock-by-failure runs under the
// oracle. The engines see crashed ranks as AND-self sinks and must agree
// on the by-failure classification; the static pass is skipped at the
// run level (the runtime observed a different program than the recorder).
func TestChaosDifferentialRankCrash(t *testing.T) {
	lo, hi := int64(0), testseed.ChaosRuns(20)
	if testing.Short() {
		hi = 3
	}
	testseed.Run(t, lo, hi, func(t *testing.T, seed int64) {
		t.Parallel()
		rep := runBounded(t, 6, workload.Stress(40), must.Options{
			FanIn:        2,
			Timeout:      20 * time.Millisecond,
			Differential: true,
			Fault: &must.FaultPlan{
				Seed:        seed,
				RankCrashes: []must.RankCrash{{Rank: int(seed % 6), AtCall: 5 + int(seed%20)}},
			},
		})
		if rep.Verdict != must.VerdictDeadlockByFailure {
			t.Fatalf("seed %d: verdict %v, want deadlock-by-failure", seed, rep.Verdict)
		}
		assertNoDeviation(t, rep)
		if v := rep.EngineVerdicts["cmh"]; v != "deadlock-by-failure" {
			t.Fatalf("seed %d: cmh verdict %q", seed, v)
		}
	})
}
