package wfg

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dwst/internal/waitstate"
)

func TestTwoCycleANDDeadlock(t *testing.T) {
	g := New(3)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "send to 1")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "send to 0")
	dead := g.Deadlocked()
	if len(dead) != 2 || dead[0] != 0 || dead[1] != 1 {
		t.Fatalf("deadlocked = %v, want [0 1]", dead)
	}
	cyc := g.Cycle(dead)
	if len(cyc) != 2 {
		t.Fatalf("cycle = %v, want a 2-cycle", cyc)
	}
}

func TestChainWithoutCycleNoDeadlock(t *testing.T) {
	g := New(4)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{2}, "")
	g.SetBlocked(2, waitstate.AndWait, []int{3}, "")
	// Process 3 is not blocked: the chain releases back to front.
	if dead := g.Deadlocked(); len(dead) != 0 {
		t.Fatalf("deadlocked = %v, want none", dead)
	}
}

func TestORKnotAllWaitForAll(t *testing.T) {
	// The wildcard stress deadlock: every process OR-waits for all others
	// (p² arcs). Everyone is deadlocked (an OR knot).
	const p = 8
	g := New(p)
	for i := 0; i < p; i++ {
		var ts []int
		for j := 0; j < p; j++ {
			if j != i {
				ts = append(ts, j)
			}
		}
		g.SetBlocked(i, waitstate.OrWait, ts, "Recv(ANY)")
	}
	if g.Arcs() != p*(p-1) {
		t.Fatalf("arcs = %d, want %d", g.Arcs(), p*(p-1))
	}
	if dead := g.Deadlocked(); len(dead) != p {
		t.Fatalf("deadlocked = %v, want all %d", dead, p)
	}
}

func TestOREscapesViaUnblockedTarget(t *testing.T) {
	// 0 and 1 OR-wait for each other AND for 2; 2 is unblocked. No OR knot:
	// both can be satisfied by 2.
	g := New(3)
	g.SetBlocked(0, waitstate.OrWait, []int{1, 2}, "")
	g.SetBlocked(1, waitstate.OrWait, []int{0, 2}, "")
	if dead := g.Deadlocked(); len(dead) != 0 {
		t.Fatalf("deadlocked = %v, want none", dead)
	}
}

func TestANDCannotEscapeViaUnblockedTarget(t *testing.T) {
	// Same shape but with AND semantics: the 0↔1 cycle persists even though
	// target 2 is unblocked.
	g := New(3)
	g.SetBlocked(0, waitstate.AndWait, []int{1, 2}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0, 2}, "")
	if dead := g.Deadlocked(); len(dead) != 2 {
		t.Fatalf("deadlocked = %v, want [0 1]", dead)
	}
}

func TestEmptyORIsSelfDeadlock(t *testing.T) {
	// OR over the empty set is unsatisfiable (e.g. wildcard receive on a
	// self-only communicator).
	g := New(2)
	g.SetBlocked(0, waitstate.OrWait, nil, "Recv(ANY) on MPI_COMM_SELF")
	dead := g.Deadlocked()
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("deadlocked = %v, want [0]", dead)
	}
	if cyc := g.Cycle(dead); len(cyc) != 1 || cyc[0] != 0 {
		t.Fatalf("cycle = %v, want [0]", cyc)
	}
}

func TestEmptyANDIsReleased(t *testing.T) {
	g := New(2)
	g.SetBlocked(0, waitstate.AndWait, nil, "")
	if dead := g.Deadlocked(); len(dead) != 0 {
		t.Fatalf("deadlocked = %v, want none", dead)
	}
}

func TestMixedAndOrPartialDeadlock(t *testing.T) {
	// 0↔1 AND cycle deadlocks; 2 OR-waits on {0,3}; 3 is unblocked, so 2
	// escapes. 4 AND-waits on 0 → 4 is dragged into the deadlock residue?
	// No: 4 waits for a deadlocked process but is itself releasable only if
	// 0 releases, which never happens → 4 is deadlocked too.
	g := New(5)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "")
	g.SetBlocked(2, waitstate.OrWait, []int{0, 3}, "")
	g.SetBlocked(4, waitstate.AndWait, []int{0}, "")
	dead := g.Deadlocked()
	want := []int{0, 1, 4}
	if len(dead) != len(want) {
		t.Fatalf("deadlocked = %v, want %v", dead, want)
	}
	for i := range want {
		if dead[i] != want[i] {
			t.Fatalf("deadlocked = %v, want %v", dead, want)
		}
	}
}

func TestWaitOnFinishedProcessIsDeadlock(t *testing.T) {
	// Rank 0 waits for rank 1, which already finalized: no cycle, but the
	// wait is permanently unsatisfiable (Sec. 3.1: a terminal state with
	// l_i < m_i is a deadlock).
	g := New(2)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "recv from finalized rank")
	g.SetFinished(1)
	dead := g.Deadlocked()
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("deadlocked = %v, want [0]", dead)
	}
	chain := g.Cycle(dead)
	if len(chain) != 1 || chain[0] != 0 {
		t.Fatalf("chain = %v", chain)
	}
}

func TestChainToFinishedProcessAllDeadlocked(t *testing.T) {
	// 0 → 1 → 2 → 3(finished): the whole chain is deadlocked; the reported
	// dependency chain runs to the unsatisfiable wait.
	g := New(4)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{2}, "")
	g.SetBlocked(2, waitstate.AndWait, []int{3}, "")
	g.SetFinished(3)
	dead := g.Deadlocked()
	if len(dead) != 3 {
		t.Fatalf("deadlocked = %v", dead)
	}
	chain := g.Cycle(dead)
	if len(chain) != 3 || chain[0] != 0 || chain[2] != 2 {
		t.Fatalf("chain = %v", chain)
	}
}

func TestORWithOneLiveTargetEscapesFinished(t *testing.T) {
	// OR over {1 (finished), 2 (running)}: still satisfiable via 2.
	g := New(3)
	g.SetBlocked(0, waitstate.OrWait, []int{1, 2}, "")
	g.SetFinished(1)
	if dead := g.Deadlocked(); len(dead) != 0 {
		t.Fatalf("deadlocked = %v, want none", dead)
	}
	// OR over only finished targets: unsatisfiable.
	g = New(3)
	g.SetBlocked(0, waitstate.OrWait, []int{1, 2}, "")
	g.SetFinished(1)
	g.SetFinished(2)
	if dead := g.Deadlocked(); len(dead) != 1 {
		t.Fatalf("deadlocked = %v, want [0]", dead)
	}
}

func TestGroupsPairwiseDeadlocks(t *testing.T) {
	// Four independent send-send pairs: 4 groups of 2.
	const p = 8
	g := New(p)
	for i := 0; i < p; i++ {
		g.SetBlocked(i, waitstate.AndWait, []int{i ^ 1}, "")
	}
	dead := g.Deadlocked()
	groups := g.Groups(dead)
	if len(groups) != p/2 {
		t.Fatalf("groups = %v", groups)
	}
	for i, grp := range groups {
		if len(grp) != 2 || grp[0] != 2*i || grp[1] != 2*i+1 {
			t.Fatalf("group %d = %v", i, grp)
		}
	}
}

func TestGroupsChainIntoCycle(t *testing.T) {
	// 3 → (0 ↔ 1) and 2 → finished: the cycle is one group; chain nodes are
	// singleton components.
	g := New(5)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "")
	g.SetBlocked(1, waitstate.AndWait, []int{0}, "")
	g.SetBlocked(3, waitstate.AndWait, []int{0}, "")
	g.SetBlocked(2, waitstate.AndWait, []int{4}, "")
	g.SetFinished(4)
	dead := g.Deadlocked()
	if len(dead) != 4 {
		t.Fatalf("dead = %v", dead)
	}
	groups := g.Groups(dead)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("first group = %v", groups[0])
	}
}

func TestGroupsWildcardKnotIsOneGroup(t *testing.T) {
	const p = 6
	g := New(p)
	for i := 0; i < p; i++ {
		var ts []int
		for j := 0; j < p; j++ {
			if j != i {
				ts = append(ts, j)
			}
		}
		g.SetBlocked(i, waitstate.OrWait, ts, "")
	}
	groups := g.Groups(g.Deadlocked())
	if len(groups) != 1 || len(groups[0]) != p {
		t.Fatalf("groups = %v", groups)
	}
}

// bruteForceDeadlocked recomputes the release fixpoint by naive repeated
// scans, directly from the definition.
func bruteForceDeadlocked(g *Graph) []int {
	released := make([]bool, g.n)
	for i := 0; i < g.n; i++ {
		released[i] = !g.blocked[i] && !g.finished[i]
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < g.n; i++ {
			if released[i] || !g.blocked[i] {
				continue
			}
			ok := false
			if g.sem[i] == waitstate.OrWait {
				for _, t := range g.targets[i] {
					if released[t] {
						ok = true
						break
					}
				}
			} else {
				ok = true
				for _, t := range g.targets[i] {
					if !released[t] {
						ok = false
						break
					}
				}
			}
			if ok {
				released[i] = true
				changed = true
			}
		}
	}
	var dead []int
	for i := 0; i < g.n; i++ {
		if g.blocked[i] && !released[i] {
			dead = append(dead, i)
		}
	}
	return dead
}

// TestFixpointMatchesBruteForce property-tests the worklist implementation
// against the naive definition on random graphs.
func TestFixpointMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				if r.Float64() < 0.4 {
					g.SetFinished(i)
				}
				continue // unblocked (possibly finished)
			}
			sem := waitstate.AndWait
			if r.Float64() < 0.5 {
				sem = waitstate.OrWait
			}
			var ts []int
			for j := 0; j < n; j++ {
				if j != i && r.Float64() < 0.3 {
					ts = append(ts, j)
				}
			}
			g.SetBlocked(i, sem, ts, "")
		}
		a := g.Deadlocked()
		b := bruteForceDeadlocked(g)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestCycleLiesWithinDeadlockedSet: the extracted cycle must consist of
// deadlocked processes and follow real arcs.
func TestCycleLiesWithinDeadlockedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(12)
		g := New(n)
		// Plant a cycle of length k, plus noise.
		k := 2 + rng.Intn(n-1)
		for i := 0; i < k; i++ {
			g.SetBlocked(i, waitstate.AndWait, []int{(i + 1) % k}, "")
		}
		for i := k; i < n; i++ {
			if rng.Float64() < 0.5 {
				g.SetBlocked(i, waitstate.AndWait, []int{rng.Intn(k)}, "")
			}
		}
		dead := g.Deadlocked()
		if len(dead) < k {
			t.Fatalf("trial %d: planted %d-cycle not detected: %v", trial, k, dead)
		}
		inDead := map[int]bool{}
		for _, d := range dead {
			inDead[d] = true
		}
		cyc := g.Cycle(dead)
		if len(cyc) < 2 {
			t.Fatalf("trial %d: cycle too short: %v", trial, cyc)
		}
		for idx, p := range cyc {
			if !inDead[p] {
				t.Fatalf("trial %d: cycle node %d not deadlocked", trial, p)
			}
			nxt := cyc[(idx+1)%len(cyc)]
			found := false
			for _, tt := range g.Targets(p) {
				if int(tt) == nxt {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: cycle edge %d→%d is not an arc", trial, p, nxt)
			}
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New(3)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "send")
	g.SetBlocked(1, waitstate.OrWait, []int{0, 2}, "wildcard recv")
	var sb strings.Builder
	if err := g.DOT(&sb, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph WaitForGraph",
		"p0 [shape=box",
		"p1 [shape=diamond",
		"p0 -> p1;",
		"p1 -> p0;",
		"p1 -> ext2 [style=dashed];",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestSetBlockedReplacesCondition(t *testing.T) {
	g := New(2)
	g.SetBlocked(0, waitstate.AndWait, []int{1}, "first")
	g.SetBlocked(0, waitstate.OrWait, nil, "second")
	if g.Arcs() != 0 {
		t.Fatalf("arcs = %d after replacement, want 0", g.Arcs())
	}
	if g.Desc(0) != "second" {
		t.Fatalf("desc = %q", g.Desc(0))
	}
}

// refDOT is the straightforward fmt-based DOT writer with map membership
// that Graph.DOT replaced; it is the oracle for byte-identical output.
func refDOT(g *Graph, w io.Writer, procs []int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if procs == nil {
		for i := 0; i < g.n; i++ {
			if g.blocked[i] {
				procs = append(procs, i)
			}
		}
	}
	include := make(map[int]bool, len(procs))
	for _, p := range procs {
		include[p] = true
	}
	fmt.Fprintln(bw, "digraph WaitForGraph {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	for _, p := range procs {
		shape := "box"
		label := fmt.Sprintf("rank %d\\nAND", p)
		if g.sem[p] == waitstate.OrWait {
			shape = "diamond"
			label = fmt.Sprintf("rank %d\\nOR", p)
		}
		fmt.Fprintf(bw, "  p%d [shape=%s,label=\"%s\"];\n", p, shape, label)
	}
	for _, p := range procs {
		for _, t := range g.targets[p] {
			if include[int(t)] {
				fmt.Fprintf(bw, "  p%d -> p%d;\n", p, t)
			} else {
				fmt.Fprintf(bw, "  p%d -> ext%d [style=dashed];\n", p, t)
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// randomGraph draws a mixed AND/OR graph over 1..maxN processes: some
// unblocked, some finished, blocked ones with random (possibly repeated or
// self) targets, and now and then an OR over the empty set.
func randomGraph(r *rand.Rand, maxN int) *Graph {
	n := 1 + r.Intn(maxN)
	g := New(n)
	density := 0.05 + 0.4*r.Float64()
	for i := 0; i < n; i++ {
		if r.Float64() < 0.2 {
			if r.Float64() < 0.5 {
				g.SetFinished(i)
			}
			continue
		}
		sem := waitstate.AndWait
		if r.Float64() < 0.5 {
			sem = waitstate.OrWait
		}
		var ts []int
		for j := 0; j < n; j++ {
			if r.Float64() < density && (j != i || r.Float64() < 0.1) {
				ts = append(ts, j)
			}
		}
		if len(ts) > 0 && r.Float64() < 0.1 {
			ts = append(ts, ts[r.Intn(len(ts))])
		}
		r.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
		g.SetBlocked(i, sem, ts, "")
	}
	return g
}

// TestDOTMatchesReference: on seeded random graphs, the array-based DOT
// writer produces exactly the bytes of the fmt-based reference, for the
// nil (all blocked) set, the deadlocked set and random subsets.
func TestDOTMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		g := randomGraph(r, 60)
		var sub []int
		for i := 0; i < g.n; i++ {
			if g.blocked[i] && r.Float64() < 0.5 {
				sub = append(sub, i)
			}
		}
		for _, procs := range [][]int{nil, g.Deadlocked(), sub} {
			var got, want strings.Builder
			if err := g.DOT(&got, procs); err != nil {
				t.Fatal(err)
			}
			if err := refDOT(g, &want, procs); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("trial %d, procs %v: DOT differs from the reference\ngot:\n%s\nwant:\n%s",
					trial, procs, got.String(), want.String())
			}
		}
	}
}

// TestDOTStreamsLargeGraphs: a rendering larger than one flush chunk
// reaches the writer in pieces and still equals the reference.
func TestDOTStreamsLargeGraphs(t *testing.T) {
	const p = 128
	g := New(p)
	for i := 0; i < p; i++ {
		var ts []int
		for j := 0; j < p; j++ {
			if j != i {
				ts = append(ts, j)
			}
		}
		g.SetBlocked(i, waitstate.OrWait, ts, "")
	}
	cw := &countingWriter{}
	if err := g.DOT(cw, nil); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := refDOT(g, &want, nil); err != nil {
		t.Fatal(err)
	}
	if cw.sb.String() != want.String() {
		t.Fatal("streamed DOT differs from the reference")
	}
	if cw.writes < 2 || cw.maxWrite > dotFlushAt+256 {
		t.Fatalf("%d writes of at most %d bytes, want several bounded chunks", cw.writes, cw.maxWrite)
	}
}

type countingWriter struct {
	sb       strings.Builder
	writes   int
	maxWrite int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.writes++
	c.maxWrite = max(c.maxWrite, len(b))
	return c.sb.Write(b)
}

// reachable returns the processes reachable from v over arcs that stay
// inside the set in (v included).
func reachable(g *Graph, v int, in []bool) []bool {
	seen := make([]bool, g.n)
	seen[v] = true
	queue := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, t := range g.targets[u] {
			if in[t] && !seen[t] {
				seen[t] = true
				queue = append(queue, int(t))
			}
		}
	}
	return seen
}

// sccByReachability computes the groups the slow way: u and v share a
// component iff each reaches the other. Components are ordered by their
// smallest member, members ascending — the Groups contract.
func sccByReachability(g *Graph, dead []int) [][]int {
	in := make([]bool, g.n)
	for _, d := range dead {
		in[d] = true
	}
	reach := make(map[int][]bool, len(dead))
	for _, d := range dead {
		reach[d] = reachable(g, d, in)
	}
	assigned := make([]bool, g.n)
	var groups [][]int
	for _, v := range dead { // ascending, so each group starts at its minimum
		if assigned[v] {
			continue
		}
		var comp []int
		for _, u := range dead {
			if reach[v][u] && reach[u][v] {
				comp = append(comp, u)
				assigned[u] = true
			}
		}
		groups = append(groups, comp)
	}
	return groups
}

// TestGroupsMatchMutualReachability property-tests the Tarjan grouping
// against independently computed strongly connected components, and checks
// that Cycle returns a valid walk inside the deadlocked set.
func TestGroupsMatchMutualReachability(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	deadlocks := 0
	for trial := 0; trial < 1200; trial++ {
		g := randomGraph(r, 30)
		dead := g.Deadlocked()
		got, want := g.Groups(dead), sccByReachability(g, dead)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d: Groups = %v, want %v", trial, got, want)
		}
		if len(dead) == 0 {
			if c := g.Cycle(dead); c != nil {
				t.Fatalf("trial %d: Cycle of an empty set = %v", trial, c)
			}
			continue
		}
		deadlocks++
		checkCycle(t, trial, g, dead, g.Cycle(dead))
	}
	if deadlocks < 300 {
		t.Fatalf("only %d of the random graphs deadlock; the property is barely exercised", deadlocks)
	}
}

// checkCycle asserts the Cycle contract: distinct deadlocked processes,
// consecutive ones joined by arcs, and either a closing arc back to the
// first (a cycle) or a chain from dead[0] ending at an unsatisfiable wait.
func checkCycle(t *testing.T, trial int, g *Graph, dead, c []int) {
	t.Helper()
	in := make([]bool, g.n)
	for _, d := range dead {
		in[d] = true
	}
	hasArc := func(u, v int) bool { return slices.Contains(g.targets[u], int32(v)) }
	if len(c) == 0 {
		t.Fatalf("trial %d: empty cycle for dead set %v", trial, dead)
	}
	seen := map[int]bool{}
	for i, v := range c {
		if !in[v] || seen[v] {
			t.Fatalf("trial %d: cycle %v leaves the dead set %v or repeats %d", trial, c, dead, v)
		}
		seen[v] = true
		if i > 0 && !hasArc(c[i-1], v) {
			t.Fatalf("trial %d: cycle %v steps %d→%d without an arc", trial, c, c[i-1], v)
		}
	}
	if hasArc(c[len(c)-1], c[0]) {
		return
	}
	if c[0] != dead[0] {
		t.Fatalf("trial %d: chain %v does not start at %d", trial, c, dead[0])
	}
	last := c[len(c)-1]
	finished, deadTarget := false, false
	for _, t := range g.targets[last] {
		finished = finished || g.finished[t]
		deadTarget = deadTarget || in[t]
	}
	allFinished := !slices.ContainsFunc(g.targets[last], func(t int32) bool { return !g.finished[t] })
	unsatisfiable := (g.sem[last] == waitstate.AndWait && finished) ||
		(g.sem[last] == waitstate.OrWait && allFinished)
	if deadTarget || !unsatisfiable {
		t.Fatalf("trial %d: chain %v ends at %d, whose wait is satisfiable or continues", trial, c, last)
	}
}
