package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory and are written out when the run ends. A
// nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []spanRec
}

// spanRec is one finished (or open) span. Op groups the spans of one
// operation; Parent is the id of the enclosing span, 0 for a root.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// record adds a span with explicit times (for spans measured elsewhere).
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// span runs fn inside a span and returns the span's duration.
func (t *tracer) span(name string, parent, op int, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent, op)
	fn(id)
	t.end(id)
	return time.Since(start)
}

// selfTimes returns every span's self time in ms — its duration minus
// the time its direct children cover (children of one span run one after
// another) — grouped by span name, in span order.
func (t *tracer) selfTimes() map[string][]float64 {
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - childNS[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

type selfSummary struct {
	total float64
	count int
}

// selfTimeByName sums self time per span name.
func (t *tracer) selfTimeByName() map[string]selfSummary {
	out := map[string]selfSummary{}
	for name, xs := range t.selfTimes() {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		out[name] = selfSummary{total: sum, count: len(xs)}
	}
	return out
}

// layerMedian is the median self time (ms) of the spans called name, 0
// when there are none.
func (t *tracer) layerMedian(name string) float64 {
	return median(t.selfTimes()[name])
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	spans := append([]spanRec(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
