package placer

import (
	"math"
	"testing"

	"xplace/internal/benchgen"
)

// runWith places the shared 400-cell fixture under opts and returns the
// result (fails the test on error).
func runWith(t *testing.T, opts Options) *Result {
	t.Helper()
	d := clusteredDesign(t, 400, 1)
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 600
	e := eng()
	defer e.Close()
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 600 {
		t.Fatalf("hit MaxIter without converging (overflow %v)", res.Overflow)
	}
	return res
}

// TestAdaptiveGridQualityAdaptec1 is the acceptance gate of the adaptive
// grid schedule: on the (scaled) adaptec1 fixture the coarse-to-fine run
// must converge with final HPWL no more than 1% worse than the fixed-grid
// reference. (In practice it lands well below the reference — the coarse
// early field spreads clusters before fine-grained density overreacts,
// the classic multilevel benefit.)
func TestAdaptiveGridQualityAdaptec1(t *testing.T) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		t.Fatal("adaptec1 spec missing")
	}
	d := benchgen.Generate(spec, 0.004, 1)
	run := func(adaptive bool) *Result {
		e := eng()
		defer e.Close()
		opts := Defaults()
		opts.AdaptiveGrid = adaptive
		opts.Sched.MaxIter = 1000
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if adaptive && (p.sysCoarse == nil || p.sys != p.sysCoarse) {
			t.Fatal("adaptive run must start on the M/2 coarse system")
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if adaptive && p.sys != p.sysFine {
			t.Error("adaptive run never refined to the fine grid")
		}
		if res.Iterations >= 1000 {
			t.Fatalf("hit MaxIter (overflow %v)", res.Overflow)
		}
		return res
	}
	ref := run(false)
	ada := run(true)
	if ada.HPWL > ref.HPWL*1.01 {
		t.Errorf("adaptive HPWL %v vs reference %v, want within 1%%", ada.HPWL, ref.HPWL)
	}
	t.Logf("adaptec1: ref HPWL %.1f (%d iters) vs adaptive %.1f (%d iters)",
		ref.HPWL, ref.Iterations, ada.HPWL, ada.Iterations)
}

// TestSpectralTruncationQuality: the early-stage half-band truncation must
// not cost placement quality on the toy fixture. The gate is a 3% band:
// this 400-cell fixture is chaotic enough that a 1-ulp early perturbation
// moves the final HPWL a couple of percent (in this run truncation tracks
// the reference much closer).
func TestSpectralTruncationQuality(t *testing.T) {
	ref := runWith(t, Defaults())
	opts := Defaults()
	opts.SpectralTruncation = true
	got := runWith(t, opts)
	if got.Overflow > 0.10 {
		t.Errorf("truncated overflow = %v", got.Overflow)
	}
	if rel := math.Abs(got.HPWL-ref.HPWL) / ref.HPWL; rel > 0.03 {
		t.Errorf("truncated HPWL %v vs reference %v (rel %.4f)", got.HPWL, ref.HPWL, rel)
	}
}

// TestCloseReleasesEverything: after an adaptive-grid run with spectral
// truncation (both density systems and the row-cutoff plan), Close returns
// every arena byte the placer checked out, twice in a row, and the placer
// still runs afterwards (the re-checkout contract).
func TestCloseReleasesEverything(t *testing.T) {
	d := clusteredDesign(t, 300, 2)
	e := eng()
	defer e.Close()
	base := e.ArenaStats().InUse
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 80
	opts.AdaptiveGrid = true
	opts.SpectralTruncation = true
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIterations(10); err != nil {
		t.Fatal(err)
	}
	if e.ArenaStats().InUse <= base {
		t.Fatal("run should hold arena scratch")
	}
	p.Close()
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after Close = %d, want %d", got, base)
	}
	p.Close() // idempotent
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after second Close = %d, want %d", got, base)
	}
	if _, err := p.RunIterations(3); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	p.Close()
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after close-run-close = %d, want %d", got, base)
	}
}
