package placer

import (
	"testing"

	"xplace/internal/benchgen"
)

// oracleHPWLBand is the checked-in cross-strategy tolerance: on scaled
// adaptec1 the LB/UB upper bound (already rough-legalized) must land
// within this relative band of the Nesterov global-placement HPWL. The
// two algorithms share nothing but the netlist and the bin grid, so a
// quality regression in either one moves the ratio out of the band. The
// band is asymmetric on purpose: LB/UB is the draft tier and lands above
// the gradient flow, but a *collapse* (ratio below the lower edge) would
// mean the oracle itself broke.
const (
	oracleHPWLBandHigh = 0.45 // lbub may be up to 45% above nesterov
	oracleHPWLBandLow  = 0.30 // and no more than 30% below
)

// TestOracleLBUBvsNesterovAdaptec1 is the headline cross-strategy check
// (make test-oracle): two structurally independent placers agree on
// scaled adaptec1 within the checked-in band, and the oracle side is
// bit-identical run to run so the band never flakes.
func TestOracleLBUBvsNesterovAdaptec1(t *testing.T) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		t.Fatal("adaptec1 spec missing")
	}
	d := benchgen.Generate(spec, 0.004, 1)

	run := func(opts Options) *Result {
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
		return res
	}

	nesOpts := Defaults()
	nesOpts.Sched.MaxIter = 1000
	nes := run(nesOpts)
	if nes.Iterations >= 1000 {
		t.Fatalf("nesterov hit MaxIter (overflow %v)", nes.Overflow)
	}

	lbOpts := Defaults()
	lbOpts.Strategy = StrategyLBUB
	lb1 := run(lbOpts)
	lb2 := run(lbOpts)

	// Oracle determinism: the band is only meaningful if the oracle's
	// number cannot drift between runs.
	if lb1.HPWL != lb2.HPWL || lb1.Overflow != lb2.Overflow || lb1.Iterations != lb2.Iterations {
		t.Fatalf("lbub not deterministic: (%v, %v, %d) vs (%v, %v, %d)",
			lb1.HPWL, lb1.Overflow, lb1.Iterations, lb2.HPWL, lb2.Overflow, lb2.Iterations)
	}

	ratio := lb1.HPWL / nes.HPWL
	t.Logf("adaptec1 oracle: nesterov HPWL %.1f (%d iters) vs lbub %.1f (%d rounds, overflow %.3f), ratio %.3f",
		nes.HPWL, nes.Iterations, lb1.HPWL, lb1.Iterations, lb1.Overflow, ratio)
	if ratio > 1+oracleHPWLBandHigh {
		t.Errorf("lbub HPWL %.1f is %.1f%% above nesterov %.1f (band +%.0f%%)",
			lb1.HPWL, 100*(ratio-1), nes.HPWL, 100*oracleHPWLBandHigh)
	}
	if ratio < 1-oracleHPWLBandLow {
		t.Errorf("lbub HPWL %.1f is %.1f%% below nesterov %.1f (band -%.0f%%) — oracle collapsed",
			lb1.HPWL, 100*(1-ratio), nes.HPWL, 100*oracleHPWLBandLow)
	}
}
