package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef names a metric and its unit. The two lists below are the
// benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tool sees, from untraced runs.
var endToEnd = []metricDef{
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p90", "ms"},
	{"slowdown", "x"},
	{"calls_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricDef{
	{"mpisim.ref_ms", "ms"},
	{"mpisim.calls", "count"},
	{"core.op_ms", "ms"},
	{"core.app_ms", "ms"},
	{"core.outside_app_ms", "ms"},
	{"core.trigger_wait_ms", "ms"},
	{"tbon.transit_us_per_event", "us"},
	{"tbon.mem_hw_bytes", "bytes"},
	{"tbon.gated_waits", "count"},
	{"tbon.overflow_events", "count"},
	{"tbon.queue_depth_hw.up", "count"},
	{"tbon.queue_depth_hw.down", "count"},
	{"tbon.queue_depth_hw.peer", "count"},
	{"dws.tool_msgs", "count"},
	{"dws.pass_sends", "count"},
	{"dws.recv_actives", "count"},
	{"dws.recv_active_acks", "count"},
	{"dws.coll_readys", "count"},
	{"dws.window_hw", "count"},
	{"p2pmatch.ns_per_op", "ns"},
	{"detect.sync_ms", "ms"},
	{"detect.gather_ms", "ms"},
	{"detect.build_ms", "ms"},
	{"detect.check_ms", "ms"},
	{"detect.arcs", "count"},
	{"detect.snapshot_retries", "count"},
	{"detect.dropped_results", "count"},
	{"wfg.build_ms", "ms"},
	{"wfg.check_ms", "ms"},
	{"report.output_ms", "ms"},
	{"report.dot_ms", "ms"},
	{"report.html_ms", "ms"},
	{"report.dot_bytes", "bytes"},
	{"report.html_bytes", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_op", "count"},
	{"trace.ops", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// build pairs values with the units of defs, refusing a malformed name or
// unit and a missing, extra or non-finite value.
func build(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return nil, fmt.Errorf("metric %q: malformed name or unit %q", d.name, d.unit)
		}
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics computed, %d defined", len(vals), len(defs))
	}
	return out, nil
}

// e2eMetrics computes the end-to-end metrics of an untraced run.
func e2eMetrics(b *bench, ops []opSample, refs []time.Duration, setups []time.Duration, selfRSS int64) map[string]float64 {
	walls := make([]float64, len(ops))
	cpus := make([]float64, len(ops))
	for i, s := range ops {
		walls[i] = ms(s.wall)
		cpus[i] = ms(s.cpu)
	}
	p50 := median(walls)
	return map[string]float64{
		"verdict_ms_p50": p50,
		"verdict_ms_p90": percentile(walls, tailPercentile(len(walls))),
		"slowdown":       p50 / median(msList(refs)),
		"calls_per_s":    float64(b.w.calls) / (p50 / 1000),
		"cpu_ms_per_op":  mean(cpus),
		"rss_peak_mb":    float64(selfRSS) / 1024,
		"success_ratio":  float64(b.attempted-b.failed) / float64(b.attempted),
		"setup_s":        median(secList(setups)),
	}
}

// layerMetrics computes the per-layer metrics of a traced run from its
// traced ops, the spans, and the layer drivers' results.
func layerMetrics(b *bench, ops []opSample, lr layerResult) map[string]float64 {
	var traced, plain []opSample
	for _, s := range ops {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	n := float64(len(traced))
	// avg is the mean of f over the traced ops; means keep the phase vector
	// additive (app + outside = op).
	avg := func(f func(s opSample) float64) float64 {
		sum := 0.0
		for _, s := range traced {
			sum += f(s)
		}
		return sum / n
	}
	hw := func(class string) float64 {
		return avg(func(s opSample) float64 { return float64(s.rep.QueueDepthHW[class]) })
	}
	self := b.tr.selfTimes()
	wallMs := func(s opSample) float64 { return ms(s.wall) }
	appMs := func(s opSample) float64 { return ms(s.rep.Elapsed) }

	v := map[string]float64{
		"mpisim.ref_ms": spanMs(self, "mpi.Run"),
		"mpisim.calls":  float64(b.w.calls),

		"core.op_ms":          avg(wallMs),
		"core.app_ms":         avg(appMs),
		"core.outside_app_ms": avg(func(s opSample) float64 { return wallMs(s) - appMs(s) }),
		"core.trigger_wait_ms": avg(func(s opSample) float64 {
			if !s.rep.Deadlock {
				return 0
			}
			return ms(s.rep.Elapsed - s.rep.Timings.Total())
		}),

		"tbon.transit_us_per_event": spanMs(self, "tbon.transit") * 1000 / float64(lr.events),
		"tbon.mem_hw_bytes":         avg(func(s opSample) float64 { return float64(s.rep.MemHighWater) }),
		"tbon.gated_waits":          avg(func(s opSample) float64 { return float64(s.rep.GatedWaits) }),
		"tbon.overflow_events":      avg(func(s opSample) float64 { return float64(s.rep.OverflowEvents) }),
		"tbon.queue_depth_hw.up":    hw("up"),
		"tbon.queue_depth_hw.down":  hw("down"),
		"tbon.queue_depth_hw.peer":  hw("peer"),

		"dws.tool_msgs":        avg(func(s opSample) float64 { return float64(s.rep.ToolMessages.Total()) }),
		"dws.pass_sends":       avg(func(s opSample) float64 { return float64(s.rep.ToolMessages.PassSends) }),
		"dws.recv_actives":     avg(func(s opSample) float64 { return float64(s.rep.ToolMessages.RecvActives) }),
		"dws.recv_active_acks": avg(func(s opSample) float64 { return float64(s.rep.ToolMessages.RecvActiveAcks) }),
		"dws.coll_readys":      avg(func(s opSample) float64 { return float64(s.rep.ToolMessages.CollReadys) }),
		"dws.window_hw":        avg(func(s opSample) float64 { return float64(s.rep.WindowHighWater) }),
		"p2pmatch.ns_per_op":   spanMs(self, "p2pmatch.replay") * 1e6 / float64(lr.matchCalls),

		"detect.sync_ms":          avg(func(s opSample) float64 { return ms(s.rep.Timings.Synchronization) }),
		"detect.gather_ms":        avg(func(s opSample) float64 { return ms(s.rep.Timings.WFGGather) }),
		"detect.build_ms":         avg(func(s opSample) float64 { return ms(s.rep.Timings.GraphBuild) }),
		"detect.check_ms":         avg(func(s opSample) float64 { return ms(s.rep.Timings.DeadlockCheck) }),
		"detect.arcs":             avg(func(s opSample) float64 { return float64(s.rep.Arcs) }),
		"detect.snapshot_retries": avg(func(s opSample) float64 { return float64(s.rep.SnapshotRetries) }),
		"detect.dropped_results":  avg(func(s opSample) float64 { return float64(s.rep.DroppedResults) }),
		"wfg.build_ms":            spanMs(self, "wfg.build"),
		"wfg.check_ms":            spanMs(self, "wfg.Deadlocked", "wfg.Cycle", "wfg.Groups", "wfg.Simplify"),
		"report.output_ms":        avg(func(s opSample) float64 { return ms(s.rep.Timings.OutputGeneration) }),
		"report.dot_ms":           spanMs(self, "report.DOT"),
		"report.html_ms":          spanMs(self, "report.HTML"),
		"report.dot_bytes":        float64(len(lr.graph.dot)),
		"report.html_bytes":       float64(len(lr.graph.html)),
		"go.allocs_per_op":        avg(func(s opSample) float64 { return float64(s.mallocs) }),
		"go.alloc_bytes_per_op":   avg(func(s opSample) float64 { return float64(s.allocBytes) }),
		"go.gc_cycles_per_op":     avg(func(s opSample) float64 { return float64(s.gcs) }),
		"trace.ops":               n,
		"trace.spans":             float64(len(b.tr.spans)),
		"trace.overhead_pct":      overheadPct(traced, plain),
	}
	return v
}

// spanMs sums, over the given span names, the median self time of each
// name in ms (0 for a name with no spans).
func spanMs(self map[string][]time.Duration, names ...string) float64 {
	sum := 0.0
	for _, n := range names {
		if ds := self[n]; len(ds) > 0 {
			sum += median(msList(ds))
		}
	}
	return sum
}

// overheadPct is how much slower the traced iterations' median is than
// the untraced ones' of the same run, in percent of the latter. An
// iteration is everything the tracing touches: the op, its oracle check,
// the reference run, the Go runtime reads and the spans.
func overheadPct(traced, plain []opSample) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	iters := func(ss []opSample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.iter)
		}
		return out
	}
	t, p := median(iters(traced)), median(iters(plain))
	return 100 * (t - p) / p
}

func secList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
