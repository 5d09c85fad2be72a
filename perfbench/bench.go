package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"dwst/mpi"
	"dwst/must"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// bench runs one workload's ops closed-loop: an op starts only after the
// previous one returned.
type bench struct {
	w   *workload
	tr  *tracer // nil in untraced runs
	seq int     // op identifier shared by the op's spans

	attempted, failed int
}

// opSample is one op as measured from outside the tool.
type opSample struct {
	wall   time.Duration // must.Run call to returned verdict
	cpu    time.Duration // user+system CPU of this process across the op
	iter   time.Duration // the whole measured iteration: op, oracle, reference run, tracing
	rep    *must.Report  // without its rendered artifacts (see op)
	err    error         // the oracle's objection, if any
	traced bool
	// Go runtime deltas across the op (traced ops only; this process).
	mallocs, allocBytes, gcs uint64
}

// op runs one tool run and checks its verdict. It returns the sample, whose
// report is stripped of the rendered artifacts so a long run's samples do
// not pin megabytes of DOT per op, and the full report.
func (b *bench) op(traced bool) (opSample, *must.Report) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	b.seq++
	s := opSample{traced: traced && tr != nil}
	var m0, m1 runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&m0)
	}
	root := tr.begin(b.seq, 0, "op")
	cpu0 := selfCPU()
	sp := tr.begin(b.seq, root, "must.Run")
	t0 := time.Now()
	full := must.Run(b.w.procs, b.w.prog, b.w.options())
	s.wall = time.Since(t0)
	tr.end(sp)
	s.cpu = selfCPU() - cpu0
	tr.do(b.seq, root, "oracle", func(int) { s.err = b.w.check(full) })
	tr.end(root)
	if full != nil {
		light := *full
		light.HTML, light.DOT, light.SimplifiedDOT, light.Conditions = "", "", "", nil
		s.rep = &light
	}
	if s.traced {
		runtime.ReadMemStats(&m1)
		s.mallocs = m1.Mallocs - m0.Mallocs
		s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		s.gcs = uint64(m1.NumGC - m0.NumGC)
	}
	b.attempted++
	if s.err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", b.w.name, b.seq, s.err)
	}
	return s, full
}

// ref times one stand-alone mpi.Run of the workload's reference program:
// the application without the tool.
func (b *bench) ref(traced bool) (time.Duration, error) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	sp := tr.begin(b.seq, 0, "mpi.Run")
	t0 := time.Now()
	err := mpi.Run(b.w.procs, b.w.ref)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("reference mpi.Run of %s: %w", b.w.name, err)
	}
	return d, nil
}

// setup sets the workload up setupReps times and returns the bench of the
// last set-up, a checked report for the layer drivers, and each set-up's
// time. A set-up is everything before the first measured op: the inputs
// built from seed, the count of the program's MPI calls, and a warm-up of
// one checked op and one reference run, so the measured ops do not pay for
// the heap's growth. The warm-up ops count as attempted (and, if wrong,
// failed) ops.
func setup(name string, seed int64, tr *tracer) (*bench, *must.Report, []time.Duration, error) {
	b := &bench{tr: tr}
	var good *must.Report
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		w, err := newWorkload(name, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		b.w = w
		s, full := b.op(false)
		if _, err := b.ref(false); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0))
		if s.err == nil {
			good = full
		}
	}
	return b, good, times, nil
}

// measure runs ops closed-loop for the given duration, each followed by one
// reference run. In a traced run every other iteration is traced, so the
// untraced ones in between give the tracing overhead.
func (b *bench) measure(d time.Duration, traced bool) ([]opSample, []time.Duration, error) {
	var ops []opSample
	var refs []time.Duration
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t := traced && i%2 == 0
		t0 := time.Now()
		s, _ := b.op(t)
		r, err := b.ref(t)
		if err != nil {
			return nil, nil, err
		}
		s.iter = time.Since(t0)
		ops = append(ops, s)
		refs = append(refs, r)
	}
	return ops, refs, nil
}

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfRSSKB is this process's peak resident set so far, in KiB.
func selfRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
