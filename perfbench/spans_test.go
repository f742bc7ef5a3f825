package main

import (
	"testing"
	"time"

	"xplace/internal/obs"
)

func TestOpGroupsSelfTime(t *testing.T) {
	ev := []obs.Event{
		{Name: "op.density", Cat: obs.CatGroup, Kind: obs.KindSpan, Dur: 5 * time.Second},
		{Name: "op.nn", Cat: obs.CatGroup, Kind: obs.KindSpan, Dur: 3 * time.Second},
		{Name: "op.density", Cat: obs.CatGroup, Kind: obs.KindSpan, Dur: 1 * time.Second},
		{Name: "flow.detail", Cat: obs.CatFlow, Kind: obs.KindSpan, Dur: 2 * time.Second},
		{Name: "density.cells", Cat: obs.CatKernel, Kind: obs.KindSpan, Dur: time.Second},
		{Name: "overflow", Cat: obs.CatCounterTrack, Kind: obs.KindCounter, Value: 9},
	}
	g := opGroups(ev)
	if g["op.density"] != 3 || g["op.nn"] != 3 || g["flow.detail"] != 2 {
		t.Errorf("op groups %v, want op.density 3 (self), op.nn 3, flow.detail 2", g)
	}
	if _, ok := g["density.cells"]; ok {
		t.Error("kernel launches counted as an op group")
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if d := off.end(off.begin("x", 0, -1)); d < 0 {
		t.Errorf("nil recorder timed %v", d)
	}
	if off.durations("x", -1) != nil {
		t.Error("nil recorder returned spans")
	}
	r := newRecorder()
	root := r.begin("call", 1, -1)
	child := r.begin("inner", 1, root.id)
	r.end(child)
	r.end(root)
	r.end(r.begin("inner", 2, -1))
	if n := len(r.durations("inner", -1)); n != 2 {
		t.Errorf("%d inner spans, want 2", n)
	}
	if n := len(r.durations("inner", 1)); n != 1 {
		t.Errorf("%d inner spans of op 1, want 1", n)
	}
	if r.spans[child.id].Parent != root.id {
		t.Errorf("child parent %d, want %d", r.spans[child.id].Parent, root.id)
	}
}
