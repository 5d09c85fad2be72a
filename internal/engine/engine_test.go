package engine

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dwst/internal/waitstate"
)

func andWait(targets ...int) Wait {
	return Wait{Sem: waitstate.AndWait, Targets: targets}
}

func orWait(targets ...int) Wait {
	return Wait{Sem: waitstate.OrWait, Targets: targets}
}

func TestClassify(t *testing.T) {
	snap := &Snapshot{Procs: 4, Dead: []int{2}, Stalled: []int{3}}
	if v := Classify(snap, []int{0, 2}); v != VerdictDeadlockByFailure {
		t.Fatalf("residue with dead rank: %v", v)
	}
	if v := Classify(snap, []int{0, 1}); v != VerdictDeadlock {
		t.Fatalf("live residue: %v", v)
	}
	if v := Classify(snap, nil); v != VerdictStalled {
		t.Fatalf("no residue, stalled ranks: %v", v)
	}
	if v := Classify(&Snapshot{Procs: 4}, nil); v != VerdictNone {
		t.Fatalf("clean snapshot: %v", v)
	}
}

// TestCMHAgainstWFGHandCases pins the snapshots that break naive probe
// formulations; each compares CMH against the reference fixpoint.
func TestCMHAgainstWFGHandCases(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"two-cycle", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(0),
		}}},
		{"chain-to-running", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(2),
		}}},
		// The mixed AND/OR case where immediate duplicate replies
		// over-approximate: i waits AND{h,w}, h waits OR{z} with z
		// executing, w waits AND{h}. z releases h, h releases w and i:
		// no deadlock.
		{"mixed-and-or-release", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: andWait(1, 2), 1: orWait(3), 2: andWait(1),
		}}},
		// OR-wait where only one branch is deadlocked: 0 waits OR{1,3},
		// 1 waits AND{2}, 2 waits AND{1}, 3 executing → 0 escapes.
		{"or-escape", &Snapshot{Procs: 4, Blocked: map[int]Wait{
			0: orWait(1, 3), 1: andWait(2), 2: andWait(1),
		}}},
		// OR-knot: every branch of every OR is blocked.
		{"or-knot", &Snapshot{Procs: 3, Blocked: map[int]Wait{
			0: orWait(1, 2), 1: orWait(0, 2), 2: orWait(0, 1),
		}}},
		// AND-wait with a duplicated target (Waitall on two receives from
		// the same rank): needs two grants under duplicate counting, one
		// per distinct target under set semantics — must agree anyway.
		{"duplicate-target", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1, 1), 1: andWait(0),
		}}},
		// Crashed rank modeled as AND{self}; 1 waits on it.
		{"dead-sink", &Snapshot{Procs: 3, Dead: []int{2}, Blocked: map[int]Wait{
			1: andWait(2), 2: andWait(2),
		}}},
		// Unknown rank modeled as OR over the empty set.
		{"unknown-sink", &Snapshot{Procs: 3, Unknown: []int{2}, Blocked: map[int]Wait{
			1: andWait(2), 2: orWait(),
		}}},
		// Finished ranks never satisfy a waiter: 1 finished, 0 waits on it.
		{"wait-on-finished", &Snapshot{Procs: 2, Finished: []int{1}, Blocked: map[int]Wait{
			0: andWait(1),
		}}},
		// AND over the empty set is released immediately and releases its
		// own waiters in turn.
		{"empty-and-releases", &Snapshot{Procs: 2, Blocked: map[int]Wait{
			0: andWait(1), 1: andWait(),
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareCMH(t, tc.snap)
		})
	}
}

// TestCMHAgainstWFGRandom is the property check behind the differential
// oracle: over thousands of seeded random snapshots (mixed AND/OR waits,
// finished, dead, unknown, stalled ranks), the probe engine must agree
// with the reference fixpoint on verdict and deadlocked set exactly.
func TestCMHAgainstWFGRandom(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := randomSnapshot(rng)
		compareCMH(t, snap)
		if t.Failed() {
			t.Fatalf("seed %d: snapshot %+v", seed, snap)
		}
	}
}

func randomSnapshot(rng *rand.Rand) *Snapshot {
	n := 2 + rng.Intn(9)
	snap := &Snapshot{Procs: n, Blocked: map[int]Wait{}}
	for r := 0; r < n; r++ {
		switch rng.Intn(6) {
		case 0: // finished
			snap.Finished = append(snap.Finished, r)
		case 1: // running
		case 2: // stalled (never blocked)
			snap.Stalled = append(snap.Stalled, r)
		case 3: // dead: AND{self} sink
			snap.Dead = append(snap.Dead, r)
			snap.Blocked[r] = andWait(r)
		case 4: // unknown: OR-∅ sink
			snap.Unknown = append(snap.Unknown, r)
			snap.Blocked[r] = orWait()
		default: // blocked with random semantics and targets
			sem := waitstate.AndWait
			if rng.Intn(2) == 0 {
				sem = waitstate.OrWait
			}
			var targets []int
			for k := rng.Intn(3) + 1; k > 0; k-- {
				tgt := rng.Intn(n)
				if tgt != r {
					targets = append(targets, tgt) // duplicates allowed
				}
			}
			snap.Blocked[r] = Wait{Sem: sem, Targets: targets}
		}
	}
	return snap
}

func compareCMH(t *testing.T, snap *Snapshot) {
	t.Helper()
	refVerdict, refDead, _ := WFG{}.AnalyzeGraph(snap)
	v, dl, err := CMH{}.Analyze(Input{Snapshot: snap})
	if err != nil {
		t.Fatalf("cmh error: %v", err)
	}
	if v != refVerdict {
		t.Errorf("cmh verdict %v, wfg %v", v, refVerdict)
	}
	if !equalInts(dl, refDead) {
		t.Errorf("cmh deadlocked %v, wfg %v", dl, refDead)
	}
}

// brokenEngine deliberately inverts the reference verdict — the seeded
// fault the differential oracle must catch.
type brokenEngine struct{ verdict Verdict }

func (brokenEngine) Name() string { return "broken" }
func (brokenEngine) Needs() Need  { return NeedSnapshot }
func (b brokenEngine) Analyze(Input) (Verdict, []int, error) {
	if b.verdict == VerdictDeadlock {
		return VerdictDeadlock, []int{0, 1}, nil
	}
	return b.verdict, nil, nil
}

type errorEngine struct{}

func (errorEngine) Name() string { return "erroring" }
func (errorEngine) Needs() Need  { return NeedSnapshot }
func (errorEngine) Analyze(Input) (Verdict, []int, error) {
	return VerdictNone, nil, errors.New("boom")
}

func TestDeviations(t *testing.T) {
	ref := Finding{Engine: "wfg", Verdict: VerdictNone}
	engines := []Engine{brokenEngine{verdict: VerdictDeadlock}, errorEngine{}, CMH{}}
	findings := RunAll(engines, Input{Snapshot: &Snapshot{Procs: 2}})
	devs := Deviations(ref, findings)
	if len(devs) != 2 {
		t.Fatalf("want 2 deviations (broken verdict + engine error), got %v", devs)
	}

	// Agreement produces none.
	snap := &Snapshot{Procs: 2, Blocked: map[int]Wait{0: andWait(1), 1: andWait(0)}}
	refVerdict, refDead, _ := WFG{}.AnalyzeGraph(snap)
	ref = Finding{Engine: "wfg", Verdict: refVerdict, Deadlocked: refDead}
	engines = []Engine{CMH{}}
	devs = Deviations(ref, RunAll(engines, Input{Snapshot: snap}))
	if len(devs) != 0 {
		t.Fatalf("agreeing engines reported deviations: %v", devs)
	}
}

func TestVerdictStrings(t *testing.T) {
	f := Finding{Engine: "x", Err: ErrInapplicable}
	if s := f.VerdictString(); s != "inapplicable" {
		t.Fatalf("inapplicable finding: %q", s)
	}
	f = Finding{Engine: "x", Verdict: VerdictDeadlock}
	if s := f.VerdictString(); s != "deadlock" {
		t.Fatalf("deadlock finding: %q", s)
	}
}

func TestSortedDeadlockedOutput(t *testing.T) {
	snap := &Snapshot{Procs: 6, Blocked: map[int]Wait{
		5: andWait(4), 4: andWait(5), 1: andWait(0), 0: andWait(1),
	}}
	_, dl, err := CMH{}.Analyze(Input{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(dl) {
		t.Fatalf("deadlocked set not ascending: %v", dl)
	}
	if !equalInts(dl, []int{0, 1, 4, 5}) {
		t.Fatalf("deadlocked = %v", dl)
	}
}
