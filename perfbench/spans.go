package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xplace/internal/obs"
)

// span is one benchmark-side timing record around a call into a public
// entry point of the program. Spans of one operation (a Flow call, a
// served request) share Op; Parent indexes the enclosing span, -1 for a
// root.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
}

// spanRef is an open span: its slot in the recorder (-1 when not
// recording) and its start time.
type spanRef struct {
	id    int
	start time.Time
}

// recorder keeps the benchmark's spans in memory until the run ends. A
// nil recorder records nothing but still times, so the untraced and the
// traced run share one code path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span named after the called entry point.
func (r *recorder) begin(name string, op, parent int) spanRef {
	now := time.Now()
	if r == nil {
		return spanRef{id: -1, start: now}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now.Sub(r.epoch).Seconds()})
	return spanRef{id: len(r.spans) - 1, start: now}
}

// end closes s and returns its wall duration.
func (r *recorder) end(s spanRef) time.Duration {
	d := time.Since(s.start)
	if r != nil && s.id >= 0 {
		r.mu.Lock()
		r.spans[s.id].Dur = d.Seconds()
		r.mu.Unlock()
	}
	return d
}

// durations returns the wall durations in seconds of the spans with the
// given name, in record order: those of operation op, or all for op < 0.
func (r *recorder) durations(name string, op int) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (op < 0 || s.Op == op) {
			out = append(out, s.Dur)
		}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opGroups sums the wall time in seconds of the placer's operator-group
// spans (obs.CatGroup: op.wirelength, op.density, ...) and flow-stage
// spans (obs.CatFlow: flow.gp, flow.legalize, flow.detail) recorded on
// one run's tracer. op.nn is recorded inside op.density, so op.density is
// reported as its self time, with the op.nn share taken out.
func opGroups(events []obs.Event) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range events {
		if e.Kind == obs.KindSpan && (e.Cat == obs.CatGroup || e.Cat == obs.CatFlow) {
			out[e.Name] += e.Dur.Seconds()
		}
	}
	if nn, ok := out["op.nn"]; ok {
		out["op.density"] -= nn
	}
	return out
}
