package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the tool. Spans of
// one op (or one layer-driver pass) share Op; Parent is the enclosing
// span's ID, or 0 at the top.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// do runs fn inside a span.
func (t *tracer) do(op, parent int, name string, fn func(id int)) {
	id := t.begin(op, parent, name)
	fn(id)
	t.end(id)
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of its interval covered by its child spans.
func (t *tracer) selfTimes() map[string][]time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curS, curE, open = c.Start, c.End, true
		case c.Start <= curE:
			if c.End > curE {
				curE = c.End
			}
		default:
			total += curE - curS
			curS, curE = c.Start, c.End
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
