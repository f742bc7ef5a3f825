package main

import (
	"fmt"
	"math"

	"xplace"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/jobapi"
	"xplace/internal/wirelength"
)

// layerCallRepeats is how many times each single-layer call is timed; the
// reported figure is the median per call.
const layerCallRepeats = 9

// layerOp is the Op id of spans that belong to no workload operation.
const layerOp = -1

// gridSize mirrors the placer's automatic density-grid rule (the smallest
// power of two from 32 up to 1024 that reaches sqrt(cells)), so the field
// layer is timed on the grid the workload's placement runs on.
func gridSize(cells int) int {
	target := int(math.Sqrt(float64(cells)))
	m := 32
	for m < target && m < 1024 {
		m <<= 1
	}
	return m
}

// layerCalls times single calls into the field, wirelength, nn and jobapi
// layers on the workload's design, recording a span around each and
// adding each call's time in ms (the metric is their median). x, y place the design's cells (a
// result of the workload); fillers start where the placer puts them.
func layerCalls(rec *recorder, l samples, eng *xplace.Engine, d *xplace.Design, x, y []float64,
	pred xplace.FieldPredictor, req jobapi.Request) error {
	aug := d.Clone()
	aug.AddFillers(1.0)
	if err := aug.Finish(); err != nil {
		return err
	}
	ax := append([]float64(nil), aug.CellX...)
	ay := append([]float64(nil), aug.CellY...)
	copy(ax, x)
	copy(ay, y)
	m := gridSize(aug.NumCells())
	sys := field.NewSystem(geom.NewGrid(d.Region, m, m), eng)
	defer sys.Release(eng)
	gx := make([]float64, aug.NumCells())
	gy := make([]float64, aug.NumCells())
	wl := wirelength.NewOps(eng, aug, wirelength.WA)
	defer wl.Release()
	pinGX := make([]float64, aug.NumPins())
	pinGY := make([]float64, aug.NumPins())
	gamma := math.Sqrt(d.Region.W()*d.Region.H()) / 512
	ex := make([]float64, m*m)
	ey := make([]float64, m*m)

	timed := func(name string, fn func()) {
		s := rec.begin(name, layerOp, -1)
		fn()
		l.add(name, 1e3*rec.end(s).Seconds())
	}
	for i := 0; i < layerCallRepeats; i++ {
		timed("field.System.ScatterDensity", func() {
			sys.ScatterDensity(eng, aug, ax, ay, field.MaskAll, sys.Total, "density.total")
		})
		timed("field.System.SolvePoisson", func() { sys.SolvePoisson(eng) })
		timed("field.System.GatherField", func() {
			sys.GatherField(eng, aug, ax, ay, field.MaskPlaceable, gx, gy)
		})
		timed("wirelength.Ops.Fused", func() { wl.Fused(ax, ay, gamma, pinGX, pinGY) })
		timed("nn.Predictor.PredictField", func() { pred.PredictField(sys.Total, m, m, ex, ey) })
		var err error
		timed("jobapi.Request.ToSpec", func() {
			r := req // ToSpec normalizes in place
			_, err = r.ToSpec()
		})
		if err != nil {
			return err
		}
	}
	rename := map[string]string{
		"field.System.ScatterDensity": "field.scatter_ms",
		"field.System.SolvePoisson":   "field.poisson_ms",
		"field.System.GatherField":    "field.gather_ms",
		"wirelength.Ops.Fused":        "wirelength.fused_ms",
		"nn.Predictor.PredictField":   "nn.forward_ms",
		"jobapi.Request.ToSpec":       "jobapi.to_spec_ms",
	}
	for from, to := range rename {
		l[to] = append(l[to], l[from]...)
		delete(l, from)
	}
	return nil
}

// detailRerun legalizes one GP result with xplace.Legalize and runs
// xplace.DetailedPlace on that legal placement detailReruns times,
// reporting how many reruns end on another placement than the first as
// detail.rerun_mismatch. DP should be a pure function of its input; a
// non-zero count is the map-order defect of the detail pass showing.
// With stages set it also reports the calls' times and HPWL ratios as
// the legal and detail layer figures (for a workload whose own runs have
// no LG or DP stage).
func detailRerun(o *outcome, l samples, d *xplace.Design, gp *xplace.PlacementResult, stages bool) error {
	s := o.rec.begin("xplace.Legalize", layerOp, -1)
	lx, ly, err := xplace.Legalize(d, gp.X, gp.Y, xplace.LegalizeTetris)
	legalS := o.rec.end(s).Seconds()
	if err != nil {
		return err
	}
	if n := xplace.CheckLegal(d, lx, ly); n != 0 {
		return fmt.Errorf("Legalize left %d violations", n)
	}
	var firstX, firstY []float64
	mismatch := 0
	for i := 0; i < detailReruns; i++ {
		s := o.rec.begin("xplace.DetailedPlace", layerOp, -1)
		fx, fy := xplace.DetailedPlace(d, lx, ly, xplace.DetailOptions{})
		detailS := o.rec.end(s).Seconds()
		if stages {
			l.add("detail.s", detailS)
		}
		if i == 0 {
			firstX, firstY = fx, fy
			continue
		}
		if !equalFloats(fx, firstX) || !equalFloats(fy, firstY) {
			mismatch++
		}
	}
	l.add("detail.rerun_mismatch", float64(mismatch))
	if stages {
		legalHPWL := d.HPWL(lx, ly)
		l.add("legal.s", legalS)
		l.add("legal.hpwl_ratio", ratio(legalHPWL, gp.HPWL))
		l.add("detail.hpwl_ratio", ratio(d.HPWL(firstX, firstY), legalHPWL))
	}
	return nil
}
