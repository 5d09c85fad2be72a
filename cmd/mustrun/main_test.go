package main

import (
	"encoding/json"
	"testing"
	"time"

	"dwst/internal/session"
	"dwst/must"
)

func TestValidateTransportFlags(t *testing.T) {
	type args struct {
		transport      string
		mode           string
		procs          int
		fanIn          int
		workers        int
		faultActive    bool
		wf             wireFlags
		killWorker     int
		respawnMax     int
		respawnBackoff time.Duration
		tcpOnlySet     []string
	}
	ok := args{transport: "tcp", mode: "distributed", procs: 8, fanIn: 2, workers: 2,
		killWorker: -1, respawnMax: 3, respawnBackoff: 100 * time.Millisecond}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr bool
	}{
		{"tcp defaults", func(a *args) {}, false},
		{"chan without tcp flags", func(a *args) { a.transport = "chan" }, false},
		{"chan with tcp-only flag set", func(a *args) {
			a.transport = "chan"
			a.tcpOnlySet = []string{"-wire-drop"}
		}, true},
		{"chan with -listen set", func(a *args) {
			a.transport = "chan"
			a.tcpOnlySet = []string{"-listen"}
		}, true},
		{"chan with -dial-timeout set", func(a *args) {
			a.transport = "chan"
			a.tcpOnlySet = []string{"-dial-timeout"}
		}, true},
		{"unknown transport", func(a *args) { a.transport = "udp" }, true},
		{"tcp needs distributed mode", func(a *args) { a.mode = "centralized" }, true},
		{"tcp rejects chan fault plans", func(a *args) { a.faultActive = true }, true},
		{"single first-layer node", func(a *args) { a.procs = 4; a.fanIn = 4 }, true},
		{"zero workers", func(a *args) { a.workers = 0 }, true},
		{"more workers than leaves", func(a *args) { a.workers = 5 }, true},
		{"wire drop above one", func(a *args) { a.wf.Drop = 1.5 }, true},
		{"wire dup negative", func(a *args) { a.wf.Dup = -0.1 }, true},
		{"wire delay negative", func(a *args) { a.wf.Delay = -time.Millisecond }, true},
		{"partition-after without partition-for", func(a *args) { a.wf.PartitionAfter = time.Second }, true},
		{"partition pair", func(a *args) {
			a.wf.PartitionAfter = time.Second
			a.wf.PartitionFor = time.Second
		}, false},
		{"kill-worker out of range", func(a *args) { a.killWorker = 2 }, true},
		{"kill-worker in range", func(a *args) { a.killWorker = 1 }, false},
		{"respawn disabled", func(a *args) { a.respawnMax = 0 }, false},
		{"negative respawn-max", func(a *args) { a.respawnMax = -1 }, true},
		{"negative respawn-backoff", func(a *args) { a.respawnBackoff = -time.Millisecond }, true},
		{"chan with -respawn-max set", func(a *args) {
			a.transport = "chan"
			a.tcpOnlySet = []string{"-respawn-max"}
		}, true},
		{"chan with -respawn-backoff set", func(a *args) {
			a.transport = "chan"
			a.tcpOnlySet = []string{"-respawn-backoff"}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := ok
			c.mut(&a)
			err := validateTransportFlags(a.transport, a.mode, a.procs, a.fanIn, a.workers,
				a.faultActive, a.wf, a.killWorker, a.respawnMax, a.respawnBackoff, a.tcpOnlySet)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateTransportFlags(%+v) error = %v, wantErr %v", a, err, c.wantErr)
			}
		})
	}
}

func TestMemBudgetFlag(t *testing.T) {
	cases := []struct {
		flag    int64
		want    int64
		wantErr bool
	}{
		{must.DefaultMemBudget, 0, false}, // the default encodes as spec's 0
		{1 << 20, 1 << 20, false},
		{0, 0, true}, // 0 no longer means unbounded
		{-1, 0, true},
	}
	for _, c := range cases {
		got, err := memBudgetSpec(c.flag)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("memBudgetSpec(%d) = %d, %v; want %d, wantErr %v", c.flag, got, err, c.want, c.wantErr)
		}
	}
}

// The stats schema itself lives in internal/session now; this guards the
// mustrun-specific contract that TCP transport counters survive the trip
// into -stats-json.
func TestStatsJSONCarriesTransportCounters(t *testing.T) {
	rep := &must.Report{
		Reconnects:            3,
		CodecErrors:           1,
		BytesOnWire:           4096,
		Retransmits:           7,
		WorkerRespawns:        2,
		ShippedJournalEntries: 40,
		RespawnBackoff:        300 * time.Millisecond,
		ReplayTime:            5 * time.Millisecond,
	}
	b, err := json.Marshal(session.StatsFor("fig2b", 8, "distributed", "tcp", rep))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for field, want := range map[string]float64{
		"reconnects":              3,
		"codec_errors":            1,
		"bytes_on_wire":           4096,
		"retransmits":             7,
		"worker_respawns":         2,
		"shipped_journal_entries": 40,
		"respawn_backoff_ms":      300,
		"replay_ms":               5,
	} {
		if got[field] != want {
			t.Errorf("stats JSON field %q = %v, want %v", field, got[field], want)
		}
	}
	if got["transport"] != "tcp" {
		t.Errorf("stats JSON transport = %v, want tcp", got["transport"])
	}
}
