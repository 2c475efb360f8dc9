package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the driver around the
// public function it calls. Spans stay in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Root   int    `json:"root"`   // the root span's ID, shared by every span under it
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced passes
// run the same code with no bookkeeping.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its ID.
func (t *tracer) record(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Root: root, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is filled in by the returned function. It
// lets a parent take its ID before its children are recorded.
func (t *tracer) begin(name, layer string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	now := time.Now()
	id = t.record(name, layer, parent, now, now)
	return id, func() { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }
}

// selfTimes returns each layer's self time in milliseconds: the duration of
// its spans minus the part of each span that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans and per-layer self times as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		Schema   string             `json:"schema"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
		Overhead string             `json:"note"`
	}{
		Schema: "perfbench-trace/v1",
		SelfMS: selfTimes(t.spans),
		Spans:  t.spans,
		Overhead: "spans are recorded by the benchmark driver around calls " +
			"into each layer's public functions; a point span starts at its " +
			"OnPoint time minus its Wall, which is exact at one worker",
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
