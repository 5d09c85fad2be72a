package detect

import (
	"strings"
	"testing"
	"time"

	"dwst/internal/dws"
	"dwst/internal/engine"
)

// TestEngineSelectionCMH verifies that -engine=cmh makes the probe
// engine's finding primary while still recording the reference verdict.
func TestEngineSelectionCMH(t *testing.T) {
	r := NewRoot(2, 1)
	r.SetEngines("cmh", false)
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 1), blockedSend(1, 0)}},
	})
	if !res.Deadlock || res.Verdict != VerdictDeadlock {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Deadlocked) != 2 || res.Deadlocked[0] != 0 || res.Deadlocked[1] != 1 {
		t.Fatalf("deadlocked = %v", res.Deadlocked)
	}
	if res.EngineVerdicts["wfg"] != "deadlock" || res.EngineVerdicts["cmh"] != "deadlock" {
		t.Fatalf("engine verdicts = %v", res.EngineVerdicts)
	}
	if len(res.EngineDeviations) != 0 {
		t.Fatalf("non-differential run reported deviations: %v", res.EngineDeviations)
	}
	// Graph outputs still come from the reference graph.
	if res.HTML == "" || res.DOT == "" || len(res.Cycle) != 2 {
		t.Fatal("outputs missing under cmh selection")
	}
}

// TestDifferentialAgreement: a differential run over a clean deadlock
// snapshot records every engine's verdict and zero deviations.
func TestDifferentialAgreement(t *testing.T) {
	r := NewRoot(4, 2)
	r.SetEngines("", true)
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 3), running(1)}},
		{Node: 1, Entries: []dws.WaitEntry{running(2), blockedSend(3, 0)}},
	})
	if !res.Deadlock {
		t.Fatalf("res = %+v", res)
	}
	for _, e := range []string{"wfg", "cmh"} {
		if _, ok := res.EngineVerdicts[e]; !ok {
			t.Fatalf("engine %s missing from verdicts %v", e, res.EngineVerdicts)
		}
	}
	if len(res.EngineDeviations) != 0 {
		t.Fatalf("deviations on agreeing engines: %v", res.EngineDeviations)
	}
}

// wrongEngine always claims the opposite of a deadlock verdict — the
// seeded fault that must surface as a deviation.
type wrongEngine struct{}

func (wrongEngine) Name() string       { return "seeded-wrong" }
func (wrongEngine) Needs() engine.Need { return engine.NeedSnapshot }
func (wrongEngine) Analyze(in engine.Input) (engine.Verdict, []int, error) {
	return engine.VerdictNone, nil, nil
}

// TestSeededDeviationIsDetected is the acceptance check for the
// differential oracle: an intentionally broken engine injected via
// AddEngine must produce a deviation on a deadlocking snapshot.
func TestSeededDeviationIsDetected(t *testing.T) {
	r := NewRoot(2, 1)
	r.SetEngines("", true)
	r.AddEngine(wrongEngine{})
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 1), blockedSend(1, 0)}},
	})
	if !res.Deadlock {
		t.Fatalf("res = %+v", res)
	}
	if res.EngineVerdicts["seeded-wrong"] != "none" {
		t.Fatalf("engine verdicts = %v", res.EngineVerdicts)
	}
	found := false
	for _, d := range res.EngineDeviations {
		if strings.Contains(d, "seeded-wrong") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded deviation not reported: %v", res.EngineDeviations)
	}
}

// TestNodeDownCompletesReports is the OnNodeDown regression test: when
// the crash of a first-layer node removes the last missing *reporter*,
// detection must complete and yield exactly one Result with the crashed
// node's ranks classified Unknown and the report marked Partial — and the
// driver must observe that result on the channel.
func TestNodeDownCompletesReports(t *testing.T) {
	r := NewRoot(4, 2)
	if !r.Start() {
		t.Fatal("Start refused")
	}
	// Both nodes ack; node 1 then dies before reporting.
	if r.OnAck(dws.AckConsistentState{Node: 0, Epoch: r.Epoch()}) {
		t.Fatal("acks complete after one ack")
	}
	if !r.OnAck(dws.AckConsistentState{Node: 1, Epoch: r.Epoch()}) {
		t.Fatal("acks not complete after both")
	}
	if res := r.OnWaitReport(dws.WaitReport{Node: 0, Epoch: r.Epoch(),
		Entries: []dws.WaitEntry{blockedSend(0, 2), running(1)}}); res != nil {
		t.Fatal("detection finished with a report still missing")
	}
	if r.OnNodeDown(1, []int{2, 3}) {
		t.Fatal("ackDone must be false in the reporting phase")
	}
	// The crash completed the round: exactly one result on the channel.
	var res *Result
	select {
	case res = <-r.Results:
	default:
		t.Fatal("no result delivered after the completing crash")
	}
	select {
	case extra := <-r.Results:
		t.Fatalf("second result delivered: %+v", extra)
	default:
	}
	if !res.Partial || len(res.UnknownRanks) != 2 {
		t.Fatalf("partial=%v unknown=%v", res.Partial, res.UnknownRanks)
	}
	if res.UnknownRanks[0] != 2 || res.UnknownRanks[1] != 3 {
		t.Fatalf("unknown ranks = %v", res.UnknownRanks)
	}
	// Rank 0 waits on unknown rank 2 (an OR-∅ sink): deadlocked, and the
	// entries classify 2 and 3 as Unknown.
	if !res.Deadlock {
		t.Fatalf("res = %+v", res)
	}
	for _, u := range []int{2, 3} {
		if res.Entries[u].State != dws.Unknown {
			t.Fatalf("rank %d entry = %+v", u, res.Entries[u])
		}
	}
	// A duplicate crash notification must not produce another result.
	if r.OnNodeDown(1, []int{2, 3}) {
		t.Fatal("duplicate OnNodeDown returned ackDone")
	}
	select {
	case extra := <-r.Results:
		t.Fatalf("duplicate crash re-ran detection: %+v", extra)
	default:
	}
}

// TestNodeDownCompletesAcks covers the other completing transition: the
// dead node was the last missing *acker*, so the driver must broadcast
// RequestWaits next (ackDone true), and the round then completes from the
// surviving node's report alone.
func TestNodeDownCompletesAcks(t *testing.T) {
	r := NewRoot(4, 2)
	if !r.Start() {
		t.Fatal("Start refused")
	}
	if r.OnAck(dws.AckConsistentState{Node: 0, Epoch: r.Epoch()}) {
		t.Fatal("acks complete after one ack")
	}
	if !r.OnNodeDown(1, []int{2, 3}) {
		t.Fatal("crash of the last missing acker must return ackDone")
	}
	res := r.OnWaitReport(dws.WaitReport{Node: 0, Epoch: r.Epoch(),
		Entries: []dws.WaitEntry{running(0), running(1)}})
	if res == nil {
		t.Fatal("surviving node's report did not complete the round")
	}
	if !res.Partial || len(res.UnknownRanks) != 2 {
		t.Fatalf("partial=%v unknown=%v", res.Partial, res.UnknownRanks)
	}
}

// TestResultDeliveryBlocksThenDelivers: with the channel momentarily
// full, finish must wait for the driver instead of dropping the result.
func TestResultDeliveryBlocksThenDelivers(t *testing.T) {
	r := NewRoot(2, 1)
	for i := 0; i < cap(r.Results); i++ {
		r.Results <- &Result{}
	}
	drained := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < cap(r.Results); i++ {
			<-r.Results
		}
		close(drained)
	}()
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 1), blockedSend(1, 0)}},
	})
	<-drained
	select {
	case got := <-r.Results:
		if got != res {
			t.Fatal("delivered result differs")
		}
	case <-time.After(time.Second):
		t.Fatal("result never delivered")
	}
	if n := r.DroppedResults(); n != 0 {
		t.Fatalf("dropped = %d, want 0", n)
	}
}

// TestResultDropIsCounted: a wedged driver (channel full past the
// delivery timeout) must not wedge the root; the loss is counted.
func TestResultDropIsCounted(t *testing.T) {
	old := resultDeliveryTimeout
	resultDeliveryTimeout = 30 * time.Millisecond
	defer func() { resultDeliveryTimeout = old }()

	r := NewRoot(2, 1)
	for i := 0; i < cap(r.Results); i++ {
		r.Results <- &Result{}
	}
	res := runDetection(t, r, []dws.WaitReport{
		{Node: 0, Entries: []dws.WaitEntry{blockedSend(0, 1), blockedSend(1, 0)}},
	})
	if res == nil {
		t.Fatal("finish must still return the result to the caller")
	}
	if n := r.DroppedResults(); n != 1 {
		t.Fatalf("dropped = %d, want 1", n)
	}
}
