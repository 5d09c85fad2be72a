package session

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestDurationJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"50ms"`, 50 * time.Millisecond},
		{`"1.5s"`, 1500 * time.Millisecond},
		{`250`, 250 * time.Millisecond}, // bare numbers are milliseconds
		{`0`, 0},
	}
	for _, c := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(c.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if time.Duration(d) != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, time.Duration(d), c.want)
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Duration
		if err := json.Unmarshal(b, &back); err != nil || back != d {
			t.Errorf("round trip of %s via %s: got %v err %v", c.in, b, back, err)
		}
	}
	for _, bad := range []string{`"xyz"`, `"5"`, `true`, `[1]`} {
		var d Duration
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Errorf("unmarshal %s: accepted malformed duration", bad)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{Workload: "recvrecv", Procs: 8}
	cases := []struct {
		name    string
		mut     func(*Spec)
		wantErr bool
	}{
		{"valid minimal", func(s *Spec) {}, false},
		{"valid with fault", func(s *Spec) {
			s.Fault = &FaultSpec{Drop: 0.1, RankCrashes: "2:5,7", RankStalls: "1:3:5ms:busy"}
		}, false},
		{"missing workload", func(s *Spec) { s.Workload = "" }, true},
		{"unknown workload", func(s *Spec) { s.Workload = "nope" }, true},
		{"unknown spec proxy", func(s *Spec) { s.Workload = "spec:nope" }, true},
		{"zero procs", func(s *Spec) { s.Procs = 0 }, true},
		{"bad mode", func(s *Spec) { s.Mode = "quantum" }, true},
		{"centralized ok", func(s *Spec) { s.Mode = "centralized" }, false},
		{"centralized rejects fault", func(s *Spec) {
			s.Mode = "centralized"
			s.Fault = &FaultSpec{Drop: 0.1}
		}, true},
		{"negative fanin", func(s *Spec) { s.FanIn = -1 }, true},
		{"negative timeout", func(s *Spec) { s.Timeout = Duration(-time.Second) }, true},
		{"negative deadline", func(s *Spec) { s.Deadline = Duration(-1) }, true},
		{"drop above one", func(s *Spec) { s.Fault = &FaultSpec{Drop: 1.1} }, true},
		{"negative dup", func(s *Spec) { s.Fault = &FaultSpec{Dup: -0.5} }, true},
		{"negative reorder", func(s *Spec) { s.Fault = &FaultSpec{Reorder: -0.1} }, true},
		{"negative journal cap", func(s *Spec) { s.Fault = &FaultSpec{JournalCap: -1} }, true},
		{"negative crash node", func(s *Spec) { s.Fault = &FaultSpec{Crashes: []CrashSpec{{Node: -1}}} }, true},
		{"malformed rank crash", func(s *Spec) { s.Fault = &FaultSpec{RankCrashes: "1:2:3"} }, true},
		{"malformed rank stall", func(s *Spec) { s.Fault = &FaultSpec{RankStalls: "1:2"} }, true},
		{"engine cmh", func(s *Spec) { s.Engine = "cmh" }, false},
		{"engine all differential", func(s *Spec) { s.Engine = "all"; s.Differential = true }, false},
		{"unknown engine", func(s *Spec) { s.Engine = "magic" }, true},
		{"centralized rejects engine", func(s *Spec) { s.Mode = "centralized"; s.Engine = "cmh" }, true},
		{"centralized rejects differential", func(s *Spec) { s.Mode = "centralized"; s.Differential = true }, true},
		{"positive mem_budget", func(s *Spec) { s.MemBudget = 1 << 20 }, false},
		{"mem_budget -1 no longer means unbounded", func(s *Spec) { s.MemBudget = -1 }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := valid
			c.mut(&s)
			err := s.Validate()
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate(%+v) error = %v, wantErr %v", s, err, c.wantErr)
			}
		})
	}
}

func TestSpecOptionsMapsFaultPlan(t *testing.T) {
	no := false
	s := Spec{
		Workload: "recvrecv", Procs: 8, FanIn: 2, MemBudget: 1 << 20,
		Timeout: Duration(10 * time.Millisecond),
		Fault: &FaultSpec{
			Seed: 7, Drop: 0.25, JitterMax: Duration(time.Millisecond),
			Crashes:     []CrashSpec{{Node: 1, After: Duration(5 * time.Millisecond)}},
			RankCrashes: "2:5",
			Recover:     &no,
			JournalCap:  64,
		},
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MemBudget != 1<<20 {
		t.Errorf("mem_budget mapped to %d, want %d", opts.MemBudget, 1<<20)
	}
	p := opts.Fault
	if p == nil {
		t.Fatal("no fault plan")
	}
	if p.Seed != 7 || p.JournalCap != 64 || p.Recover {
		t.Errorf("plan seed/cap/recover = %d/%d/%v, want 7/64/false", p.Seed, p.JournalCap, p.Recover)
	}
	if len(p.Rules) != 1 || p.Rules[0].Drop != 0.25 || p.Rules[0].JitterMax != time.Millisecond {
		t.Errorf("rules = %+v", p.Rules)
	}
	if len(p.Crashes) != 1 || p.Crashes[0].Layer != 0 || p.Crashes[0].Index != 1 {
		t.Errorf("crashes = %+v", p.Crashes)
	}
	if len(p.RankCrashes) != 1 || p.RankCrashes[0].Rank != 2 || p.RankCrashes[0].AtCall != 5 {
		t.Errorf("rank crashes = %+v", p.RankCrashes)
	}

	// Recover defaults to true when unset.
	s.Fault.Recover = nil
	opts, err = s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Fault.Recover {
		t.Error("nil Recover should default to true")
	}
}

func TestParseRankCrashesRejectsMalformed(t *testing.T) {
	for _, spec := range []string{"x", "1:2:3", "1:", ":5", "1,,2"} {
		if _, err := ParseRankCrashes(spec); err == nil {
			t.Errorf("ParseRankCrashes(%q) accepted malformed spec", spec)
		}
	}
	out, err := ParseRankCrashes("2:5,7")
	if err != nil || len(out) != 2 || out[0].Rank != 2 || out[0].AtCall != 5 || out[1].Rank != 7 || out[1].AtCall != 1 {
		t.Fatalf("ParseRankCrashes(\"2:5,7\") = %v, %v", out, err)
	}
}

func TestParseRankStallsRejectsMalformed(t *testing.T) {
	for _, spec := range []string{"1", "1:2", "a:2:5ms", "1:b:5ms", "1:2:zz", "1:2:5ms:spin"} {
		if _, err := ParseRankStalls(spec); err == nil {
			t.Errorf("ParseRankStalls(%q) accepted malformed spec", spec)
		}
	}
	out, err := ParseRankStalls("3:4:0:busy")
	if err != nil || len(out) != 1 || out[0].Rank != 3 || out[0].AtCall != 4 || out[0].For != 0 || !out[0].Busy {
		t.Fatalf("ParseRankStalls(\"3:4:0:busy\") = %v, %v", out, err)
	}
}

func TestSessionDifferentialStats(t *testing.T) {
	// The mustserve data path: a differential spec submitted as JSON must
	// surface engine verdicts (including the static pre-run pass) and
	// zero deviations in the session's RunStats.
	var spec Spec
	blob := `{"workload":"recvrecv","procs":4,"fanin":2,"timeout":"20ms","engine":"all","differential":true}`
	if err := json.Unmarshal([]byte(blob), &spec); err != nil {
		t.Fatal(err)
	}
	out := Run(context.Background(), &spec)
	if out.State != StateDone {
		t.Fatalf("state %s (%s)", out.State, out.Error)
	}
	st := out.Stats
	if st == nil || !st.Deadlock {
		t.Fatalf("stats = %+v", st)
	}
	for _, e := range []string{"wfg", "cmh", "static"} {
		if _, ok := st.EngineVerdicts[e]; !ok {
			t.Fatalf("engine %s missing from stats verdicts %v", e, st.EngineVerdicts)
		}
	}
	if st.EngineVerdicts["static"] != "deadlock" {
		t.Fatalf("static verdict %q on recvrecv", st.EngineVerdicts["static"])
	}
	if len(st.EngineDeviations) != 0 {
		t.Fatalf("deviations: %v", st.EngineDeviations)
	}
	if st.DroppedResults != 0 {
		t.Fatalf("dropped results: %d", st.DroppedResults)
	}
}
