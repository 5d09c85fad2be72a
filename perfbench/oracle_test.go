package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"dwst/must"
)

func goodClean() *must.Report { return &must.Report{Verdict: must.VerdictNone} }

func goodStorm(p int) *must.Report {
	dead := make([]int, p)
	for i := range dead {
		dead[i] = i
	}
	return &must.Report{
		Verdict: must.VerdictDeadlock, Deadlock: true, AppAborted: true,
		Deadlocked: dead, Arcs: p * (p - 1),
	}
}

func TestOracleAcceptsCorrectReports(t *testing.T) {
	clean := &workload{name: "stress", procs: 8}
	if err := clean.check(goodClean()); err != nil {
		t.Errorf("clean report rejected: %v", err)
	}
	storm := &workload{name: "wildcard_storm", procs: 8, deadlock: true}
	if err := storm.check(goodStorm(8)); err != nil {
		t.Errorf("storm report rejected: %v", err)
	}
}

// Each case seeds one wrong field into an otherwise correct report; the
// oracle must refuse every one, so a faster-but-wrong tool shows up as
// failed ops instead of a speed-up.
func TestOracleRejectsSeededWrongReports(t *testing.T) {
	clean := &workload{name: "stress", procs: 8}
	storm := &workload{name: "wildcard_storm", procs: 8, deadlock: true}
	cases := []struct {
		name string
		w    *workload
		bad  func(r *must.Report)
	}{
		{"clean: deadlock verdict", clean, func(r *must.Report) { r.Verdict, r.Deadlock = must.VerdictDeadlock, true }},
		{"clean: potential deadlock", clean, func(r *must.Report) { r.Deadlock, r.PotentialOnly = true, true }},
		{"clean: stalled", clean, func(r *must.Report) { r.Verdict = must.VerdictStalled }},
		{"clean: aborted", clean, func(r *must.Report) { r.AppAborted = true }},
		{"clean: lost messages", clean, func(r *must.Report) { r.LostMessages = 1 }},
		{"clean: run error", clean, func(r *must.Report) { r.Err = errors.New("run aborted") }},
		{"clean: partial", clean, func(r *must.Report) { r.Partial, r.UnknownRanks = true, []int{3} }},
		{"clean: overloaded", clean, func(r *must.Report) { r.Overloaded, r.Partial = true, true }},
		{"clean: dropped results", clean, func(r *must.Report) { r.DroppedResults = 1 }},
		{"clean: engine deviation", clean, func(r *must.Report) { r.EngineDeviations = []string{"cmh: none"} }},
		{"clean: collective mismatch", clean, func(r *must.Report) { r.CallMismatches = []string{"wave 0"} }},
		{"storm: no deadlock", storm, func(r *must.Report) { r.Verdict, r.Deadlock = must.VerdictNone, false }},
		{"storm: by failure", storm, func(r *must.Report) { r.Verdict = must.VerdictDeadlockByFailure }},
		{"storm: potential only", storm, func(r *must.Report) { r.PotentialOnly, r.AppAborted = true, false }},
		{"storm: arc missing", storm, func(r *must.Report) { r.Arcs-- }},
		{"storm: rank missing", storm, func(r *must.Report) { r.Deadlocked = r.Deadlocked[1:] }},
		{"storm: wrong rank", storm, func(r *must.Report) { r.Deadlocked[3] = 9 }},
		{"storm: partial", storm, func(r *must.Report) { r.Partial = true }},
		{"storm: dropped results", storm, func(r *must.Report) { r.DroppedResults = 2 }},
	}
	for _, c := range cases {
		rep := goodClean()
		if c.w.deadlock {
			rep = goodStorm(c.w.procs)
		}
		c.bad(rep)
		if err := c.w.check(rep); err == nil {
			t.Errorf("%s: oracle accepted a wrong report", c.name)
		}
	}
	if err := clean.check(nil); err == nil {
		t.Error("oracle accepted a missing report")
	}
}

// The oracle on real ops: a tiny instance of each in-process workload
// reaches its expected verdict under the benchmark's settings.
func TestOracleOnRealRuns(t *testing.T) {
	for _, name := range []string{"stress", "wildcard_storm"} {
		w, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		w.procs = 16
		if w.deadlock {
			rg := ringOrder(16, 7)
			w.prog, w.ref = stormProgram(rg, 2, true), stormProgram(rg, 2, false)
		} else {
			w.prog = stressProgram(ringOrder(16, 7), 10)
			w.ref = w.prog
		}
		b := &bench{w: w}
		if s, _ := b.op(false); s.err != nil {
			t.Errorf("%s: %v", name, s.err)
		}
		if _, err := b.ref(false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRingOrderIsSeededPermutation(t *testing.T) {
	a, b, c := ringOrder(50, 1), ringOrder(50, 1), ringOrder(50, 2)
	same, differ := true, false
	for r := 0; r < 50; r++ {
		if a.left[a.right[r]] != r {
			t.Fatalf("left is not the inverse of right at rank %d", r)
		}
		same = same && a.right[r] == b.right[r]
		differ = differ || a.right[r] != c.right[r]
	}
	if !same || !differ {
		t.Errorf("same seed same ring = %v, other seed other ring = %v", same, differ)
	}
	// One cycle through all ranks.
	seen, r := 0, 0
	for {
		r = a.right[r]
		seen++
		if r == 0 {
			break
		}
	}
	if seen != 50 {
		t.Errorf("ring cycle has %d ranks, want 50", seen)
	}
}

// BENCHMARK.json and the metric lists the benchmark prints must agree, and
// every name and unit must have the allowed shape.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || !validName(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, defs []metricDef) {
		if i >= len(defs) || defs[i].name != name || defs[i].unit != unit {
			t.Errorf("%s metric %d: %s (%s) in BENCHMARK.json does not match the code", kind, i, name, unit)
		}
		if !validName(name) || !validUnit(unit) || seen[name] {
			t.Errorf("%s metric %q: bad or repeated name or unit %q", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, name, better)
		}
		seen[name] = true
	}
	for i, m := range spec.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check("per-layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the code %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
}
