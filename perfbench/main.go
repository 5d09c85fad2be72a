// Command perfbench is the repository's benchmark. It runs one named
// workload closed-loop through the tool's public entry points for a fixed
// time, checks every op's verdict, and prints either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), ending with one JSON
// line:
//
//	perfbench --workload stress --seed 1 --seconds 45 --trace 0
//
// Workloads: stress, wildcard_storm. `perfbench spread` checks the
// readings are steady across seeds (spread.go). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(runSpread(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: stress | wildcard_storm")
	seed := fs.Int64("seed", 1, "input seed (chooses the ring order)")
	seconds := fs.Int("seconds", 10, "measured duration of the run")
	traceOn := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *traceOn == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	b, good, setups, err := setup(*name, *seed, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if good == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no warm-up op of %s passed the verdict oracle\n", *name)
		return 1
	}
	ops, refs, err := b.measure(time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var defs []metricDef
	var vals map[string]float64
	if traced {
		lr, err := runDrivers(tr, b.seq+1, b.w, good)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if !lr.dotMatches || !lr.htmlMatches {
			fmt.Fprintf(os.Stderr, "perfbench: direct rendering differs from the tool's report (dot equal=%v, html equal=%v)\n",
				lr.dotMatches, lr.htmlMatches)
		}
		defs, vals = perLayer, layerMetrics(b, ops, lr)
		printPhases(b, vals)
		if err := writeSpans(tr, *name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	} else {
		defs, vals = endToEnd, e2eMetrics(b, ops, refs, setups, selfRSSKB())
	}
	metrics, err := build(defs, vals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fmt.Printf("workload=%s seed=%d procs=%d ops=%d (tail percentile p%.1f) calls/op=%d\n",
		b.w.name, *seed, b.w.procs, len(ops), tailPercentile(len(ops)), b.w.calls)
	for _, d := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printPhases shows the traced run's phase vector on standard error: the
// mean op splits into application time and time outside it, and a deadlock
// op's application time into the wait for the trigger and the detection
// phases.
func printPhases(b *bench, v map[string]float64) {
	fmt.Fprintf(os.Stderr, "phases (mean ms/op): op %.3f = app %.3f + outside-app %.3f\n",
		v["core.op_ms"], v["core.app_ms"], v["core.outside_app_ms"])
	if b.w.deadlock {
		fmt.Fprintf(os.Stderr, "  app %.3f = trigger-wait %.3f + sync %.3f + gather %.3f + build %.3f + check %.3f + output %.3f\n",
			v["core.app_ms"], v["core.trigger_wait_ms"], v["detect.sync_ms"], v["detect.gather_ms"],
			v["detect.build_ms"], v["detect.check_ms"], v["report.output_ms"])
	}
	self := b.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "span self times (count, median ms):")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-18s %5d %10.4f\n", n, len(self[n]), spanMs(self, n))
	}
}

func writeSpans(tr *tracer, name string, seed int64) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
}
