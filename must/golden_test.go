package must_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dwst/internal/dws"
	"dwst/internal/report"
	"dwst/internal/waitstate"
	"dwst/internal/wfg"
	"dwst/internal/workload"
	"dwst/mpi"
	"dwst/must"
)

// The golden tests pin the rendered report artifacts byte for byte: the
// detection kernels may be rewritten for speed, but every byte a user sees
// must stay put. Regenerate with `go test ./must -run TestGolden -update`
// only for an intended output change.
var update = flag.Bool("update", false, "rewrite the golden report files under testdata/golden")

// artifacts are the four rendered outputs of one deadlock report.
type artifacts struct {
	dot, simplified, html, summary string
}

func checkGolden(t *testing.T, name string, a artifacts) {
	t.Helper()
	files := []struct{ ext, got string }{
		{".dot", a.dot},
		{".simplified.dot", a.simplified},
		{".html", a.html},
		{".summary.txt", a.summary + "\n"},
	}
	for _, f := range files {
		path := filepath.Join("testdata", "golden", name+f.ext)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(f.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if string(want) != f.got {
			t.Errorf("%s differs from the golden file (%d bytes, want %d)", path, len(f.got), len(want))
		}
	}
}

func reportArtifacts(rep *must.Report) artifacts {
	return artifacts{dot: rep.DOT, simplified: rep.SimplifiedDOT, html: rep.HTML, summary: rep.Summary}
}

// TestGoldenWildcardStorm: the Fig. 10 case at 64 ranks, p(p-1) OR arcs.
func TestGoldenWildcardStorm(t *testing.T) {
	rep := must.Run(64, workload.WildcardDeadlock(), must.Options{Timeout: 30 * time.Millisecond})
	if !rep.Deadlock || len(rep.Deadlocked) != 64 || rep.Arcs != 64*63 {
		t.Fatalf("deadlock=%v deadlocked=%d arcs=%d", rep.Deadlock, len(rep.Deadlocked), rep.Arcs)
	}
	checkGolden(t, "wildcard64", reportArtifacts(rep))
}

// TestGoldenSendSend: pairwise send-send under rendezvous sends, four
// independent AND two-cycles with explicit targets.
func TestGoldenSendSend(t *testing.T) {
	prog := func(p *mpi.Proc) {
		peer := p.Rank() ^ 1
		p.Send(mpi.Int64(1), peer, 0, mpi.CommWorld)
		p.Recv(peer, 0, mpi.CommWorld)
		p.Finalize()
	}
	rep := must.Run(8, prog, must.Options{Timeout: 30 * time.Millisecond, Rendezvous: true})
	if !rep.Deadlock || len(rep.Deadlocked) != 8 || len(rep.Groups) != 4 {
		t.Fatalf("deadlock=%v deadlocked=%v groups=%v", rep.Deadlock, rep.Deadlocked, rep.Groups)
	}
	checkGolden(t, "sendsend8", reportArtifacts(rep))
}

// TestGoldenExternalArcs renders a subset of a mixed AND/OR deadlock, so
// arcs leaving the subset come out as dashed ext nodes.
func TestGoldenExternalArcs(t *testing.T) {
	const p = 12
	g := wfg.New(p)
	entries := map[int]dws.WaitEntry{}
	set := func(r int, sem waitstate.Semantics, ts []int, desc string) {
		g.SetBlocked(r, sem, ts, desc)
		s := dws.SemAnd
		if sem == waitstate.OrWait {
			s = dws.SemOr
		}
		entries[r] = dws.WaitEntry{Rank: r, State: dws.Blocked, Sem: s, Desc: desc, Targets: ts}
	}
	// Ranks 0-3 OR-wait on each other (a knot); 4-7 are an AND ring that
	// also waits on the knot; 8 and 9 wait on a finished rank 10; 11 runs.
	for r := 0; r < 4; r++ {
		var ts []int
		for t := 0; t < 4; t++ {
			if t != r {
				ts = append(ts, t)
			}
		}
		set(r, waitstate.OrWait, ts, "Recv(ANY)")
	}
	for r := 4; r < 8; r++ {
		set(r, waitstate.AndWait, []int{4 + (r-3)%4, r - 4}, "Send+Recv")
	}
	set(8, waitstate.AndWait, []int{10, 9}, "Waitall")
	set(9, waitstate.OrWait, []int{10, 11, 8}, "Waitany")
	g.SetFinished(10)
	g.SetBlocked(11, waitstate.OrWait, nil, "Recv(ANY) on MPI_COMM_SELF")
	entries[11] = dws.WaitEntry{Rank: 11, State: dws.Blocked, Sem: dws.SemOr, Desc: "Recv(ANY) on MPI_COMM_SELF"}

	dead := g.Deadlocked()
	if len(dead) != 11 {
		t.Fatalf("deadlocked = %v, want every blocked rank", dead)
	}
	var subset []int
	for _, d := range dead {
		if d%3 != 2 {
			subset = append(subset, d)
		}
	}
	cg := g.Simplify(subset)
	var sdot strings.Builder
	if err := cg.DOT(&sdot); err != nil {
		t.Fatal(err)
	}
	cycle := g.Cycle(subset)
	checkGolden(t, "extarcs12", artifacts{
		dot:        report.DOT(g, subset),
		simplified: sdot.String(),
		html: report.HTML(&report.Data{
			Procs: p, Deadlocked: subset, Cycle: cycle, Entries: entries, Arcs: g.Arcs(),
		}),
		summary: cg.Summary(),
	})
}
