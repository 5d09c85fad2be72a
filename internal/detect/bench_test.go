package detect

import (
	"fmt"
	"testing"

	"dwst/internal/dws"
	"dwst/internal/trace"
)

// BenchmarkAnalyzeStorm runs the root's graph build, check and output on
// the Fig. 10 wildcard storm: every rank blocked in a wildcard receive on
// the world communicator, reported by fan-in-4 first-layer nodes.
func BenchmarkAnalyzeStorm(b *testing.B) {
	const fanIn = 4
	for _, p := range []int{512, 2048} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			r := NewRoot(p, p/fanIn)
			r.reports = make(map[int]dws.WaitReport, p/fanIn)
			for rk := 0; rk < p; rk++ {
				rep := r.reports[rk/fanIn]
				rep.Node = rk / fanIn
				rep.Entries = append(rep.Entries, dws.WaitEntry{
					Rank: rk, State: dws.Blocked, Kind: trace.Recv, TS: 1, Sem: dws.SemOr,
					Desc: "Recv(ANY)", WildComms: []trace.CommID{trace.CommWorld},
					IsWildcardRecv: true, Comm: trace.CommWorld, Tag: trace.AnyTag,
					MatchedSendProc: -1,
				})
				r.reports[rk/fanIn] = rep
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := r.analyze(); res.Arcs != p*(p-1) {
					b.Fatalf("arcs = %d, want %d", res.Arcs, p*(p-1))
				}
			}
		})
	}
}
