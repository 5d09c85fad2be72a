package wfg

import (
	"fmt"
	"io"
	"testing"

	"dwst/internal/waitstate"
)

// stormGraph is the Fig. 10 wildcard storm: every process OR-waits for
// every other, p(p-1) arcs. With escape, rank 0 keeps running instead, so
// its release reaches every waiter through the reverse arcs.
func stormGraph(p int, escape bool) *Graph {
	g := New(p)
	ts := make([]int, 0, p)
	for i := 0; i < p; i++ {
		if escape && i == 0 {
			continue
		}
		ts = ts[:0]
		for j := 0; j < p; j++ {
			if j != i {
				ts = append(ts, j)
			}
		}
		g.SetBlocked(i, waitstate.OrWait, ts, "Recv(ANY)")
	}
	return g
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkDead    []int
	sinkGroups  [][]int
	sinkClasses *ClassGraph
)

// benchStorm runs fn against the storm graph at the paper-scale sizes.
func benchStorm(b *testing.B, fn func(b *testing.B, g *Graph, dead []int)) {
	for _, p := range []int{512, 2048} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g := stormGraph(p, false)
			dead := g.Deadlocked()
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, g, dead)
		})
	}
}

// BenchmarkDeadlocked covers both fixpoint shapes: the storm, where no
// process is released, and its escape, where every release propagates.
func BenchmarkDeadlocked(b *testing.B) {
	for _, p := range []int{512, 2048} {
		for _, escape := range []bool{false, true} {
			b.Run(fmt.Sprintf("p=%d/escape=%v", p, escape), func(b *testing.B) {
				g := stormGraph(p, escape)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkDead = g.Deadlocked()
				}
			})
		}
	}
}

func BenchmarkGroups(b *testing.B) {
	benchStorm(b, func(b *testing.B, g *Graph, dead []int) {
		for i := 0; i < b.N; i++ {
			sinkGroups = g.Groups(dead)
		}
	})
}

func BenchmarkSimplify(b *testing.B) {
	benchStorm(b, func(b *testing.B, g *Graph, dead []int) {
		for i := 0; i < b.N; i++ {
			sinkClasses = g.Simplify(dead)
		}
	})
}

func BenchmarkDOT(b *testing.B) {
	benchStorm(b, func(b *testing.B, g *Graph, dead []int) {
		for i := 0; i < b.N; i++ {
			if err := g.DOT(io.Discard, dead); err != nil {
				b.Fatal(err)
			}
		}
	})
}
