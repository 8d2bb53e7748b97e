package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps each public call it makes in a span. Spans of one
// request share Req; Parent is 0 for a root.
type span struct {
	ID, Parent, Req int
	Name            string // "layer.function"
	Start, End      time.Duration
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID for end and for child spans.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span whose interval was measured by the caller.
func (t *tracer) add(name string, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// selfTimes returns, per span name, the self time of that name in each
// request that has it: the span's duration minus the part of it that its
// child spans cover, summed over the request's spans of that name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct {
		name string
		req  int
	}
	sums := map[key]time.Duration{}
	var order []key
	for _, s := range t.spans {
		k := key{s.Name, s.Req}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += s.End - s.Start - covered(s, children[s.ID])
	}
	out := map[string][]time.Duration{}
	for _, k := range order {
		out[k.name] = append(out[k.name], sums[k])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly: one complete ("X")
// event per span, the request ID as the thread so each request's spans
// stack on one row, and the span and parent IDs in args.
func (t *tracer) writeChrome(path string, meta any) error {
	t.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X", PID: 1, TID: s.Req,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
