package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer. Spans are recorded by the
// benchmark around the calls it makes into each module's public
// functions; the program itself is not instrumented.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Run    string        `json:"run"`    // the pass the span belongs to
	Name   string        `json:"name"`   // "<layer>.<operation>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Layer is the module a span's time is charged to: the part of its
// name before the first dot.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory for one process. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one nil check per call.
// It is not safe for concurrent use: all load comes from one goroutine.
type Tracer struct {
	epoch time.Time
	run   string
	spans []Span
	open  []int // stack of open span IDs; the top is the current parent
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetRun tags the spans that follow with run id.
func (t *Tracer) SetRun(id string) {
	if t != nil {
		t.run = id
	}
}

// Begin opens a span as a child of the innermost open span.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// Add records a span that another goroutine timed, from start to end,
// as a child of parent.
func (t *Tracer) Add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// Span runs f inside a span called name.
func (t *Tracer) Span(name string, f func()) {
	id := t.Begin(name)
	f()
	t.End(id)
}

// Spans returns the recorded spans, in the order they were opened.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteFile writes the spans to path as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
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

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of that interval its children cover.
// Children are clipped to the parent and overlapping children are
// counted once.
func selfTimes(spans []Span) []time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			start, end := max(k.Start, cur), min(k.End, s.End)
			if end > start {
				covered += end - start
				cur = end
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanStats summarizes recorded spans by name and by layer.
type spanStats struct {
	durations map[string][]time.Duration // every span's duration, by name
	self      map[string]time.Duration   // summed self time, by layer
}

func summarize(spans []Span) spanStats {
	st := spanStats{durations: map[string][]time.Duration{}, self: map[string]time.Duration{}}
	self := selfTimes(spans)
	for i, s := range spans {
		st.durations[s.Name] = append(st.durations[s.Name], s.End-s.Start)
		st.self[s.Layer()] += self[i]
	}
	return st
}

// total is the summed duration of every span called name.
func (st spanStats) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range st.durations[name] {
		sum += d
	}
	return sum
}
