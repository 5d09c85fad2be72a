// Package wfg implements the AND⊕OR wait-for graph and the deadlock
// criterion used by the paper's graph-based detection [9].
//
// Nodes are processes. A blocked process carries a wait-for condition: a set
// of target processes with either AND semantics (all targets must progress,
// e.g. sends, collectives, Waitall) or OR semantics (any one target
// suffices, e.g. wildcard receives, Waitany).
//
// The deadlock criterion is computed as a generalized release fixpoint:
// starting from the unblocked processes, repeatedly release a blocked AND
// node once ALL its targets are released and a blocked OR node once ANY
// target is. The unreleased residue is exactly the deadlocked set — for
// pure AND graphs this coincides with cycle existence, for pure OR graphs
// with knot existence, matching the criteria of [9].
package wfg

import (
	"io"
	"slices"
	"strconv"

	"dwst/internal/waitstate"
)

// Graph is a wait-for graph over n processes. The zero node state is
// "not blocked".
type Graph struct {
	n        int
	blocked  []bool
	finished []bool
	sem      []waitstate.Semantics
	targets  [][]int32
	desc     []string
	arcs     int
}

// New returns an empty wait-for graph over n processes.
func New(n int) *Graph {
	return &Graph{
		n:        n,
		blocked:  make([]bool, n),
		finished: make([]bool, n),
		sem:      make([]waitstate.Semantics, n),
		targets:  make([][]int32, n),
		desc:     make([]string, n),
	}
}

// NumProcs returns the number of processes.
func (g *Graph) NumProcs() int { return g.n }

// Arcs returns the total number of wait-for arcs.
func (g *Graph) Arcs() int { return g.arcs }

// SetBlocked records the wait-for condition of a blocked process.
func (g *Graph) SetBlocked(proc int, sem waitstate.Semantics, targets []int, desc string) {
	if g.blocked[proc] {
		g.arcs -= len(g.targets[proc])
	}
	g.blocked[proc] = true
	g.sem[proc] = sem
	ts := make([]int32, len(targets))
	for i, t := range targets {
		ts[i] = int32(t)
	}
	g.targets[proc] = ts
	g.desc[proc] = desc
	g.arcs += len(ts)
}

// AddWait records a waitstate.WaitInfo as the condition of its process.
func (g *Graph) AddWait(w waitstate.WaitInfo) {
	g.SetBlocked(w.Proc, w.Semantics, w.Targets, w.Desc)
}

// SetFinished marks a process as terminated (at MPI_Finalize or returned):
// it can never issue another operation, so it can never satisfy a waiter.
// A wait arc towards a finished process is permanently unsatisfiable — this
// realizes the Section 3.1 observation that a terminal state with some
// l_i < m_i is a deadlock even without a dependency cycle (e.g. a receive
// from a process that already finalized).
func (g *Graph) SetFinished(proc int) {
	g.finished[proc] = true
}

// Blocked reports whether proc was marked blocked.
func (g *Graph) Blocked(proc int) bool { return g.blocked[proc] }

// Finished reports whether proc was marked finished.
func (g *Graph) Finished(proc int) bool { return g.finished[proc] }

// Desc returns the recorded wait description of proc.
func (g *Graph) Desc(proc int) string { return g.desc[proc] }

// Semantics returns the wait semantics of a blocked proc.
func (g *Graph) Semantics(proc int) waitstate.Semantics { return g.sem[proc] }

// Targets returns the wait-for targets of proc (shared slice; do not modify).
func (g *Graph) Targets(proc int) []int32 { return g.targets[proc] }

// Deadlocked computes the deadlock criterion and returns the deadlocked
// processes in ascending order (empty if none). Complexity O(V + E).
func (g *Graph) Deadlocked() []int {
	// need[i]: number of releases process i still needs.
	//   AND: all targets          → need = len(targets)
	//   OR : any one target       → need = min(1, ∞); 0 targets means the
	//        condition can never be satisfied (OR over ∅ is ⊥).
	need := make([]int32, g.n)
	orEmpty := make([]bool, g.n)
	for i := 0; i < g.n; i++ {
		if !g.blocked[i] {
			continue
		}
		switch {
		case g.sem[i] == waitstate.OrWait && len(g.targets[i]) == 0:
			orEmpty[i] = true
			need[i] = 1 // never satisfied
		case g.sem[i] == waitstate.OrWait:
			need[i] = 1
		default:
			need[i] = int32(len(g.targets[i]))
		}
	}

	released := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	for i := 0; i < g.n; i++ {
		if g.finished[i] {
			continue // a finished process can never satisfy a waiter
		}
		if !g.blocked[i] || (need[i] == 0 && !orEmpty[i]) {
			released[i] = true
			queue = append(queue, int32(i))
		}
	}
	// With nothing released there is nothing to propagate (the wildcard
	// storm: everyone blocked), so the reverse arcs are only built when a
	// release can travel along them.
	var rev, revAt []int32
	if len(queue) > 0 {
		rev, revAt = g.reverseArcs()
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range rev[revAt[t]:revAt[t+1]] {
			if released[w] || orEmpty[w] {
				continue
			}
			if need[w]--; need[w] <= 0 {
				released[w] = true
				queue = append(queue, w)
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

// reverseArcs returns the arcs reversed, in compressed rows: the blocked
// waiters with an arc to t are rev[revAt[t]:revAt[t+1]], ascending.
func (g *Graph) reverseArcs() (rev, revAt []int32) {
	revAt = make([]int32, g.n+1)
	for i := 0; i < g.n; i++ {
		for _, t := range g.targets[i] {
			revAt[t+1]++
		}
	}
	for t := 0; t < g.n; t++ {
		revAt[t+1] += revAt[t]
	}
	rev = make([]int32, revAt[g.n])
	fill := slices.Clone(revAt[:g.n])
	for i := 0; i < g.n; i++ {
		for _, t := range g.targets[i] {
			rev[fill[t]] = int32(i)
			fill[t]++
		}
	}
	return rev, revAt
}

// memberSet returns a rank-indexed membership mask of procs.
func (g *Graph) memberSet(procs []int) []bool {
	in := make([]bool, g.n)
	for _, p := range procs {
		in[p] = true
	}
	return in
}

// Cycle returns one dependency cycle within the deadlocked set, as a
// sequence of processes p0 → p1 → … → pk (→ p0, the closing repeat
// omitted). When the deadlock is caused by a permanently unsatisfiable
// wait instead of a cycle — an arc to a finished process, or an OR over
// the empty set — the walk dead-ends and the returned slice is the
// dependency *chain* from the first deadlocked process to the
// unsatisfiable wait. It returns nil when dead is empty.
func (g *Graph) Cycle(dead []int) []int {
	if len(dead) == 0 {
		return nil
	}
	inDead := g.memberSet(dead)
	// seenAt[v] is v's position on the walk plus one (0: not walked yet).
	seenAt := make([]int32, g.n)
	var path []int
	for cur := dead[0]; cur >= 0; {
		if at := seenAt[cur]; at > 0 {
			return path[at-1:]
		}
		path = append(path, cur)
		seenAt[cur] = int32(len(path))
		next := -1
		for _, t := range g.targets[cur] {
			if inDead[t] {
				next = int(t)
				break
			}
		}
		cur = next
	}
	// Dead-ended: the deadlock is anchored on an unsatisfiable wait
	// (finished target or empty OR); return the chain.
	return path
}

// Groups decomposes the deadlocked set into independent deadlock clusters:
// the strongly connected components of the wait-for graph restricted to the
// deadlocked processes, plus singleton chains anchored on unsatisfiable
// waits. Each group is one reportable deadlock (e.g. the pairwise send-send
// pattern on p processes yields p/2 independent two-cycles). Groups are
// ordered by their smallest member; members ascend within a group.
func (g *Graph) Groups(dead []int) [][]int {
	if len(dead) == 0 {
		return nil
	}
	// Tarjan's SCC over the subgraph induced by dead, with an explicit
	// call stack. index[v] is v's visit number plus one (0: unvisited).
	inDead := g.memberSet(dead)
	index := make([]int32, g.n)
	low := make([]int32, g.n)
	onStack := make([]bool, g.n)
	type frame struct {
		v    int32
		next int32 // next target of v to explore
	}
	var calls []frame
	var stack []int32
	var visits int32
	visit := func(v int32) {
		visits++
		index[v], low[v] = visits, visits
		stack = append(stack, v)
		onStack[v] = true
		calls = append(calls, frame{v: v})
	}
	// Every dead process lands in exactly one group, so the groups share
	// one backing array.
	members := make([]int, 0, len(dead))
	var groups [][]int
	for _, d := range dead {
		if index[d] != 0 {
			continue
		}
		visit(int32(d))
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			ts := g.targets[v]
			i := int(f.next)
			for ; i < len(ts); i++ {
				t := ts[i]
				if !inDead[t] {
					continue
				}
				if index[t] == 0 {
					break
				}
				if onStack[t] && index[t] < low[v] {
					low[v] = index[t]
				}
			}
			if i < len(ts) {
				f.next = int32(i + 1)
				visit(ts[i])
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if u := calls[len(calls)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			from := len(members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, int(w))
				if w == v {
					break
				}
			}
			comp := members[from:len(members):len(members)]
			slices.Sort(comp)
			groups = append(groups, comp)
		}
	}
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })
	return groups
}

// dotFlushAt is the buffered size at which DOT hands its rendering to the
// writer, so the output streams for very large graphs.
const dotFlushAt = 1 << 16

// DOT writes the wait-for graph of the given processes (typically the
// deadlocked set; nil means all blocked processes) in Graphviz DOT format,
// in the style of MUST's deadlock reports. Arcs to processes outside the
// set point at dashed ext nodes.
func (g *Graph) DOT(w io.Writer, procs []int) error {
	if procs == nil {
		for i := 0; i < g.n; i++ {
			if g.blocked[i] {
				procs = append(procs, i)
			}
		}
	}
	include := g.memberSet(procs)
	// dec[at[r]:at[r+1]] is the decimal text of rank r, formatted once
	// instead of once per arc end.
	at := make([]int32, g.n+1)
	dec := make([]byte, 0, g.n*len(strconv.Itoa(g.n)))
	for r := 0; r < g.n; r++ {
		dec = strconv.AppendInt(dec, int64(r), 10)
		at[r+1] = int32(len(dec))
	}
	rank := func(r int) []byte { return dec[at[r]:at[r+1]] }

	buf := make([]byte, 0, dotFlushAt+256)
	var err error
	buf = append(buf, "digraph WaitForGraph {\n  rankdir=LR;\n"...)
	for _, p := range procs {
		buf = append(buf, "  p"...)
		buf = append(buf, rank(p)...)
		if g.sem[p] == waitstate.OrWait {
			buf = append(buf, ` [shape=diamond,label="rank `...)
			buf = append(buf, rank(p)...)
			buf = append(buf, `\nOR"];`+"\n"...)
		} else {
			buf = append(buf, ` [shape=box,label="rank `...)
			buf = append(buf, rank(p)...)
			buf = append(buf, `\nAND"];`+"\n"...)
		}
		if len(buf) >= dotFlushAt {
			buf, err = flushDOT(w, buf, err)
		}
	}
	var from []byte // "  p<p> -> ", shared by every arc of p
	for _, p := range procs {
		from = append(append(append(from[:0], "  p"...), rank(p)...), " -> "...)
		for _, t := range g.targets[p] {
			buf = append(buf, from...)
			if include[t] {
				buf = append(buf, 'p')
				buf = append(buf, rank(int(t))...)
				buf = append(buf, ";\n"...)
			} else {
				buf = append(buf, "ext"...)
				buf = append(buf, rank(int(t))...)
				buf = append(buf, " [style=dashed];\n"...)
			}
			if len(buf) >= dotFlushAt {
				buf, err = flushDOT(w, buf, err)
			}
		}
	}
	buf = append(buf, "}\n"...)
	_, err = flushDOT(w, buf, err)
	return err
}

// flushDOT hands buf to w unless an earlier write failed, and returns the
// emptied buffer with the first write error.
func flushDOT(w io.Writer, buf []byte, err error) ([]byte, error) {
	if err == nil {
		_, err = w.Write(buf)
	}
	return buf[:0], err
}
