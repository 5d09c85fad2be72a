package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSpread is `perfbench spread`, the steadiness check: from the
// repository root it runs BENCHMARK.json's command for run_seconds once per
// seed on each of its workloads and prints, per end-to-end metric, the
// median over the runs and the spread — (Q3 − Q1) ÷ median — next to the
// metric's bound. With -compare it also checks that each median agrees
// with the one of a set saved by -save, in either direction: both sets are
// meant to be runs of the same code. It exits 1 when a run fails or an op
// fails, a spread exceeds its bound, or a median differs from the saved
// one by more than its bound.
//
//	bash perfbench/run.sh spread -seeds 10 -save .bench_build/a.json
//	bash perfbench/run.sh spread -seeds 10 -first-seed 11 -compare .bench_build/a.json
func runSpread(args []string) int {
	fs := flag.NewFlagSet("perfbench spread", flag.ContinueOnError)
	seeds := fs.Int("seeds", 10, "runs per workload, one seed each")
	first := fs.Int("first-seed", 1, "first seed")
	save := fs.String("save", "", "write the runs' values to this file")
	compare := fs.String("compare", "", "check medians against a file -save wrote")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spread: BENCHMARK.json:", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var base map[string]map[string][]float64
	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(raw, &base)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread: -compare:", err)
			return 2
		}
	}

	ok := true
	values := make(map[string]map[string][]float64)
	for _, w := range names {
		values[w] = make(map[string][]float64)
		for seed := *first; seed < *first+*seeds; seed++ {
			res, err := runOnce(spec.Command, w, seed, spec.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w, seed, err)
				ok = false
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d ops failed\n", w, seed, res.Failed, res.Attempted)
				ok = false
			}
			line := fmt.Sprintf("%s seed %d:", w, seed)
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[w][m.Name] = append(values[w][m.Name], v)
				line += fmt.Sprintf(" %s=%.4g", m.Name, v)
			}
			fmt.Println(line)
		}
	}

	fmt.Printf("\n%-16s %-16s %12s %8s %6s  %s\n", "workload", "metric", "median", "spread", "bound", "check")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			xs := values[w][m.Name]
			if len(xs) < 2 {
				continue
			}
			sp := spread(xs)
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict, ok = "SPREAD", false
			case sp > m.Bound/3:
				verdict = "ok (above bound/3)"
			}
			if old := base[w][m.Name]; len(old) > 0 {
				d := worsening(median(old), median(xs), m.Better)
				verdict += fmt.Sprintf("; vs saved %+.3f", d)
				if math.Abs(d) > m.Bound {
					verdict, ok = verdict+" DIFFERS", false
				}
			}
			fmt.Printf("%-16s %-16s %12.4f %8.4f %6.2f  %s\n", w, m.Name, median(xs), sp, m.Bound, verdict)
		}
	}
	if *save != "" {
		out, err := json.MarshalIndent(values, "", " ")
		if err == nil {
			err = os.WriteFile(*save, out, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread: -save:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs the benchmark command once, untraced, and parses the
// result from the last line of its output.
func runOnce(command []string, workload string, seed, seconds int) (result, error) {
	var res result
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// worsening is how much worse cur is than prev, as a share of prev, for a
// metric where better ("lower" or "higher") is the good direction;
// negative when cur is better.
func worsening(prev, cur float64, better string) float64 {
	if better == "higher" {
		return (prev - cur) / prev
	}
	return (cur - prev) / prev
}
