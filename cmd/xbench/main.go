// Command xbench regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic contest benchmarks:
//
//	-table 1   benchmark statistics (Table 1)
//	-table 2   ISPD 2005: HPWL / GP / DP for DREAMPlace-style baseline,
//	           Xplace, Xplace-NN (Table 2)
//	-table 3   ablation of the operator-level optimizations (Table 3)
//	-table 4   ISPD 2015: HPWL, OVFL-5, GP / DP (Table 4)
//	-figure 2  operator-extraction kernel trace (Figure 2a) and the
//	           hybrid autograd/numerical gradient check (Figure 2b)
//	-figure 3  FNO training curve, parameter count, resolution transfer
//	           and flip trick (Figure 3 / §4.3)
//	-figure r  the early-stage r = lambda|gradD|/|gradWL| trace (§3.1.4)
//	-all       everything
//
// GP seconds are SIMULATED seconds: parallel compute plus kernel-launch
// cost on the engine's simulated clock (see DESIGN.md); the -launch flag
// sets the per-launch cost in microseconds. Absolute numbers differ from
// the paper's RTX 3090 wall clock; the comparisons within each table are
// the reproduction target.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"xplace"
	"xplace/internal/benchgen"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/obs"
	"xplace/internal/placer"
)

var (
	scale2005 = flag.Float64("scale2005", 0.01, "ISPD 2005 benchmark scale")
	scale2015 = flag.Float64("scale2015", 0.01, "ISPD 2015 benchmark scale")
	seed      = flag.Int64("seed", 1, "generator / placer seed")
	workers   = flag.Int("workers", 0, "kernel engine workers (0 = NumCPU)")
	launchUS  = flag.Int("launch", 150, "simulated kernel-launch cost in microseconds")
	iters     = flag.Int("iters", 300, "fixed GP iterations for the ablation (table 3)")
	quick     = flag.Bool("quick", false, "run a 3-design subset of each suite")
	table     = flag.Int("table", 0, "regenerate one table (1-4)")
	figure    = flag.String("figure", "", "regenerate one figure (2, 3, r)")
	substrate = flag.Bool("substrate", false, "report execution-substrate stats (arena, per-op allocs)")
	all       = flag.Bool("all", false, "regenerate every table and figure")
	jsonOut   = flag.String("json", "", "run the bench trajectory and write its machine-readable record (BENCH_*.json) to this file")
	checkRec  = flag.String("check", "", "run the bench trajectory and compare it against this baseline record; non-zero exit on regression")
	checkTol  = flag.Float64("check-tol", 0.05, "HPWL regression tolerance for -check (0.05 = 5%)")
	benchNote = flag.String("note", "", "free-form note stored in the -json record")
	strategyN = flag.String("strategy", "", "GP strategy for the Xplace table rows: nesterov | lbub (the pinned trajectory configs set their own)")
	modelPath = flag.String("model", "", "trained field-model artifact for the Xplace-NN column and the nn-blend trajectory config (default: train a small FNO in-process)")
)

// runStrategy is the parsed -strategy choice applied to the Xplace rows of
// the flow tables and the substrate report (the default Strategy zero
// value when the flag is unset).
var runStrategy xplace.Strategy

// defaultPlacement is xplace.DefaultPlacement with the -strategy override
// applied.
func defaultPlacement() xplace.PlacementOptions {
	o := xplace.DefaultPlacement()
	o.Strategy = runStrategy
	return o
}

func engine() *kernel.Engine {
	return kernel.New(kernel.Options{
		Workers:        *workers,
		LaunchOverhead: time.Duration(*launchUS) * time.Microsecond,
	})
}

func main() {
	flag.Parse()
	if st, err := xplace.ParseStrategy(*strategyN); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	} else {
		runStrategy = st
	}
	if *jsonOut != "" || *checkRec != "" {
		benchTrajectory()
		return
	}
	if !*all && *table == 0 && *figure == "" && !*substrate {
		flag.Usage()
		os.Exit(2)
	}
	if *all || *table == 1 {
		table1()
	}
	if *all || *table == 2 {
		table2()
	}
	if *all || *table == 3 {
		table3()
	}
	if *all || *table == 4 {
		table4()
	}
	if *all || *figure == "2" {
		figure2()
	}
	if *all || *figure == "3" {
		figure3()
	}
	if *all || *figure == "r" {
		figureR()
	}
	if *all || *substrate {
		substrateReport()
	}
}

// ----------------------------------------------------------- bench trajectory

// Bench-trajectory constants. They are pinned — bench, scale, iteration
// count and worker count all feed the operator schedule, and the checked-in
// BENCH_*.json baseline plus the CI bench-smoke lane assume bit-identical
// runs (same chunk boundaries -> same FP sums -> same OS skip decisions ->
// same launch counts).
const (
	trajBench   = "adaptec1"
	trajScale   = 0.004
	trajIters   = 60
	trajWorkers = 4
)

// In-trajectory cross-strategy band: at the pinned round count the LB/UB
// oracle's rough-legalized HPWL sits well above the mid-convergence
// gradient flow (the flow's cells have not spread yet — overflow ~0.8 —
// while the UB is already fully binned; measured ratio ~3.8). The band is
// deliberately coarse: the tight quality gate is the to-convergence oracle
// test (make test-oracle); this one only catches a strategy collapsing or
// exploding inside the bench lane.
const (
	trajLBUBRatioHigh = 6.0
	trajLBUBRatioLow  = 2.0
)

// In-trajectory NN-blend band: at the pinned iteration count the blended
// trajectory sits close to the numerical reference (measured ~1.8% below
// it — the predicted field is a smooth low-frequency stand-in, not a
// different objective). The band is coarse on purpose: the tight quality
// gate is the to-convergence test in the nn lane (make test-nn); this one
// catches the blend path breaking inside the bench lane.
const trajNNTol = 0.10

// trajConfigs are the placer configurations the trajectory compares. The
// first three reproduce the paper's operator ablation: the DREAMPlace-style
// autograd baseline, Xplace with operator combination (OC) disabled, and
// full Xplace — the launch-count gap between the last two is the OC saving
// (§3.1.1) made machine-checkable. The next two isolate the density-path
// options: spectral truncation alone and the adaptive bin grid alone. The
// last two track the alternative placement paths on the same pinned
// design: the LB/UB alternation strategy (the CI quality oracle) and the
// Xplace-NN blended flow (σ(ω)-weighted predicted field in the early
// stage, via the pinned in-process FNO or -model).
func trajConfigs() []struct {
	name string
	opts xplace.PlacementOptions
} {
	unfused := xplace.DefaultPlacement()
	unfused.OperatorCombination = false
	trunc := xplace.DefaultPlacement()
	trunc.SpectralTruncation = true
	adaptive := xplace.DefaultPlacement()
	adaptive.AdaptiveGrid = true
	lbub := xplace.DefaultPlacement()
	lbub.Strategy = xplace.StrategyLBUB
	nn := xplace.DefaultPlacement()
	nn.Predictor = fieldPredictor()
	return []struct {
		name string
		opts xplace.PlacementOptions
	}{
		{"baseline", xplace.BaselinePlacement()},
		{"xplace-unfused", unfused},
		{"xplace", xplace.DefaultPlacement()},
		{"xplace-trunc", trunc},
		{"xplace-adaptive", adaptive},
		{"xplace-lbub", lbub},
		{"xplace-nn", nn},
	}
}

// benchTrajectory runs the pinned trajectory configs and emits the
// machine-readable record (-json) and/or gates it against a checked-in
// baseline (-check): schema validation, HPWL regression beyond -check-tol,
// and any launch-count drift at equal iterations all fail the run.
func benchTrajectory() {
	d, err := xplace.GenerateBenchmark(trajBench, trajScale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
	rec := xplace.BenchRecord{Schema: obs.BenchSchema, Note: *benchNote}
	for _, c := range trajConfigs() {
		e := kernel.New(kernel.Options{
			Workers:        trajWorkers,
			LaunchOverhead: time.Duration(*launchUS) * time.Microsecond,
		})
		opts := c.opts
		opts.Seed = *seed
		p, err := placer.New(d, e, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		res, err := p.RunIterations(trajIters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		rec.Runs = append(rec.Runs, xplace.BenchRun{
			Config:     c.name,
			Bench:      trajBench,
			Scale:      trajScale,
			Seed:       *seed,
			Workers:    trajWorkers,
			LaunchUS:   *launchUS,
			Iterations: res.Iterations,
			HPWL:       res.HPWL,
			Overflow:   res.Overflow,
			WallMS:     float64(res.WallTime.Microseconds()) / 1000,
			SimMS:      float64(res.SimTime.Microseconds()) / 1000,
			Launches:   res.Stats.Launches,
			Syncs:      res.Stats.Syncs,
			ArenaPeak:  res.Stats.Arena.Peak,
		})
		fmt.Printf("%-16s HPWL %.6g  ovfl %.3f  launches %d  sim %.1fms\n",
			c.name, res.HPWL, res.Overflow, res.Stats.Launches,
			float64(res.SimTime.Microseconds())/1000)
		p.Close()
		e.Close()
	}

	if fused, ok := rec.Run("xplace"); ok {
		if unfused, ok := rec.Run("xplace-unfused"); ok && fused.Launches >= unfused.Launches {
			fmt.Fprintf(os.Stderr, "xbench: OC regression: fused config launched %d kernels, unfused %d — operator combination saved nothing\n",
				fused.Launches, unfused.Launches)
			os.Exit(1)
		}
		// NN-blend gate: the blended trajectory must track the numerical
		// reference within the coarse band — drift means the σ(ω) blend or
		// the predictor itself broke.
		if nnRun, ok := rec.Run("xplace-nn"); ok {
			if rel := abs(nnRun.HPWL-fused.HPWL) / fused.HPWL; rel > trajNNTol {
				fmt.Fprintf(os.Stderr, "xbench: nn-blend drift: HPWL %.6g vs numerical %.6g (%.1f%% > %.0f%%)\n",
					nnRun.HPWL, fused.HPWL, rel*100, trajNNTol*100)
				os.Exit(1)
			}
		}
		// Cross-strategy gate: the LB/UB oracle runs a structurally
		// different algorithm on the same pinned design; a ratio outside
		// the coarse band means one of the two placers broke.
		if lbub, ok := rec.Run("xplace-lbub"); ok {
			if ratio := lbub.HPWL / fused.HPWL; ratio > trajLBUBRatioHigh || ratio < trajLBUBRatioLow {
				fmt.Fprintf(os.Stderr, "xbench: cross-strategy drift: lbub HPWL %.6g vs xplace %.6g (ratio %.2f outside [%.1f, %.1f])\n",
					lbub.HPWL, fused.HPWL, ratio, trajLBUBRatioLow, trajLBUBRatioHigh)
				os.Exit(1)
			}
		}
	}

	rec.Micro = poissonMicro()

	if *jsonOut != "" {
		fh, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		if err := obs.WriteBenchRecord(fh, rec); err != nil {
			fh.Close()
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		if err := fh.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonOut)
	}
	if *checkRec != "" {
		fh, err := os.Open(*checkRec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		baseline, err := obs.ReadBenchRecord(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		if err := obs.CompareBenchRecords(baseline, rec, *checkTol); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: bench-smoke gate failed vs %s:\n%v\n", *checkRec, err)
			os.Exit(1)
		}
		fmt.Printf("bench-smoke gate passed vs %s (tol %.0f%%)\n", *checkRec, *checkTol*100)
	}
}

// poissonMicro times the 512-grid Poisson solve (the GP hot loop's
// dominant spectral kernel) with the full spectrum and with the
// early-stage half-band truncation. Wall times are machine-dependent — the
// smoke gate ignores them — but the ratio documents what truncation saves.
func poissonMicro() []obs.BenchMicro {
	const n = 512
	var out []obs.BenchMicro
	e := kernel.New(kernel.Options{Workers: trajWorkers})
	defer e.Close()
	grid := geom.NewGrid(geom.Rect{Hx: 1, Hy: 1}, n, n)
	s := field.NewSystem(grid, e)
	defer s.Release(e)
	for i := range s.Total {
		s.Total[i] = float64(i%23)*0.07 - 0.5
	}
	for _, variant := range []string{"full", "truncated"} {
		if variant == "truncated" {
			s.SetTruncation(n/2, n/2)
		}
		s.SolvePoisson(e) // warm the plans and scratch
		// Best of five 100ms windows: scheduler noise only ever slows a
		// window down, so the minimum is the stable estimate.
		ms := math.Inf(1)
		for w := 0; w < 5; w++ {
			reps := 0
			start := time.Now()
			for time.Since(start) < 100*time.Millisecond {
				s.SolvePoisson(e)
				reps++
			}
			if v := float64(time.Since(start).Microseconds()) / 1000 / float64(reps); v < ms {
				ms = v
			}
		}
		out = append(out, obs.BenchMicro{Name: "poisson512", Variant: variant, Grid: n, MS: ms})
		fmt.Printf("%-16s %s  %.2f ms/solve\n", "poisson512", variant, ms)
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// -------------------------------------------------------------- substrate

// substrateReport runs a short GP on each engine mode and prints the
// execution-substrate accounting: launches, buffer-arena traffic (hits /
// misses / peak bytes), and per-op arena checkout counts. The Xplace path
// is expected to show zero steady-state arena traffic (all hot-loop
// scratch is persistent), while the autograd baseline checks backward
// scratch out of the arena every iteration.
func substrateReport() {
	fmt.Println("== Execution substrate: worker pool + buffer arena ==")
	d, _ := xplace.GenerateBenchmark("adaptec1", *scale2005, *seed)
	for _, mode := range []struct {
		name string
		opts xplace.PlacementOptions
	}{
		{"Xplace", defaultPlacement()},
		{"DREAMPlace-style baseline", xplace.BaselinePlacement()},
	} {
		e := engine()
		opts := mode.opts
		opts.Seed = *seed
		p, err := placer.New(d, e, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "substrate:", err)
			return
		}
		if _, err := p.RunIterations(50); err != nil {
			fmt.Fprintln(os.Stderr, "substrate:", err)
			return
		}
		fmt.Printf("\n-- %s (50 iters, %d workers) --\n%s", mode.name, e.Workers(), e.Stats())
		e.Close()
	}
	fmt.Println()
}

func subset(specs []benchgen.Spec, n int) []benchgen.Spec {
	if !*quick || len(specs) <= n {
		return specs
	}
	return specs[:n]
}

// ---------------------------------------------------------------- table 1

func table1() {
	fmt.Println("== Table 1: Benchmarks Statistics ==")
	fmt.Printf("(published full-size counts; generated at scale %g / %g)\n\n", *scale2005, *scale2015)
	fmt.Printf("%-10s %-16s %10s %10s %12s %12s\n",
		"suite", "design", "#cells", "#nets", "#cells(gen)", "#nets(gen)")
	emit := func(specs []benchgen.Spec, scale float64) {
		for _, s := range specs {
			d := benchgen.Generate(s, scale, *seed)
			st := d.Stats()
			fmt.Printf("%-10s %-16s %10d %10d %12d %12d\n",
				s.Suite, s.Name, s.Cells, s.Nets, st.Movable, st.Nets)
		}
	}
	emit(subset(benchgen.Catalog2005(), 3), *scale2005)
	emit(subset(benchgen.Catalog2015(), 3), *scale2015)
	fmt.Println()
}

// ---------------------------------------------------------------- table 2

type flowRow struct {
	hpwl   float64
	gpSec  float64 // simulated
	dpSec  float64 // wall: legalization + detailed placement
	ovfl5  float64
	failed bool
}

func runFlow(d *xplace.Design, opts xplace.PlacementOptions, route *xplace.RouteOptions) flowRow {
	fo := xplace.FlowOptions{
		Placement: opts,
		Legalizer: xplace.LegalizeTetris,
		Engine:    engine(),
		Route:     route,
	}
	fr, err := xplace.RunFlow(d, fo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flow failed: %v\n", err)
		return flowRow{failed: true}
	}
	row := flowRow{
		hpwl:  fr.HPWLFinal,
		gpSec: fr.GPSim.Seconds(),
		dpSec: (fr.LGTime + fr.DPTime).Seconds(),
	}
	if fr.Route != nil {
		row.ovfl5 = fr.Route.Top5Overflow
	}
	return row
}

func trainSmallFNO() *xplace.Model {
	cfg := xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: *seed}
	m := xplace.NewModel(cfg)
	samples := xplace.GenerateTrainingSamples(24, 32, 32, *seed)
	m.Train(samples, xplace.TrainOptions{Epochs: 25, LR: 2e-3, Seed: *seed})
	return m
}

var (
	predOnce sync.Once
	pred     xplace.FieldPredictor
)

// fieldPredictor returns the predictor behind the Xplace-NN column and
// the nn-blend trajectory config: the -model artifact when one is given,
// else a small FNO trained in-process with pinned hyperparameters — fully
// deterministic at a given -seed, which is what lets the nn-blend config
// live in the checked-in BENCH_*.json baseline.
func fieldPredictor() xplace.FieldPredictor {
	predOnce.Do(func() {
		if *modelPath != "" {
			fh, err := os.Open(*modelPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xbench:", err)
				os.Exit(1)
			}
			defer fh.Close()
			m, err := xplace.LoadModel(fh)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: model %s: %v\n", *modelPath, err)
				os.Exit(1)
			}
			pred = xplace.NewFieldPredictor(m)
			return
		}
		fmt.Println("training the small in-process FNO (supply one with -model to skip)...")
		pred = xplace.NewFieldPredictor(trainSmallFNO())
	})
	return pred
}

func table2() {
	fmt.Println("== Table 2: HPWL and runtime on the ISPD 2005 benchmarks ==")
	fmt.Println("(HPWL after LG+DP; GP/s simulated, DP/s wall; paper shape:")
	fmt.Println(" Xplace ~1.6x GP speedup over DREAMPlace at equal-or-better HPWL,")
	fmt.Println(" Xplace-NN ~1 permille better HPWL than Xplace)")
	fmt.Println()
	pred := fieldPredictor()

	specs := subset(benchgen.Catalog2005(), 3)
	fmt.Printf("\n%-10s | %12s %8s %8s | %12s %8s %8s | %12s %8s %8s\n",
		"", "DREAMPlace", "GP/s", "DP/s", "Xplace", "GP/s", "DP/s", "Xplace-NN", "GP/s", "DP/s")
	fmt.Printf("%-10s | %12s %8s %8s | %12s %8s %8s | %12s %8s %8s\n",
		"design", "HPWL", "", "", "HPWL", "", "", "HPWL", "", "")
	var sum [3]flowRow
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2005, *seed)

		base := xplace.BaselinePlacement()
		base.Seed = *seed
		rb := runFlow(d, base, nil)

		xp := defaultPlacement()
		xp.Seed = *seed
		rx := runFlow(d, xp, nil)

		xn := xplace.DefaultPlacement()
		xn.Seed = *seed
		xn.Predictor = pred
		rn := runFlow(d, xn, nil)

		fmt.Printf("%-10s | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f\n",
			s.Name, rb.hpwl, rb.gpSec, rb.dpSec, rx.hpwl, rx.gpSec, rx.dpSec, rn.hpwl, rn.gpSec, rn.dpSec)
		for i, r := range []flowRow{rb, rx, rn} {
			sum[i].hpwl += r.hpwl
			sum[i].gpSec += r.gpSec
			sum[i].dpSec += r.dpSec
		}
	}
	fmt.Printf("%-10s | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f\n",
		"Sum", sum[0].hpwl, sum[0].gpSec, sum[0].dpSec,
		sum[1].hpwl, sum[1].gpSec, sum[1].dpSec,
		sum[2].hpwl, sum[2].gpSec, sum[2].dpSec)
	fmt.Printf("%-10s | %12.4f %8.3f %8.3f | %12.4f %8.3f %8.3f | %12.4f %8.3f %8.3f\n\n",
		"Ratio",
		sum[0].hpwl/sum[1].hpwl, sum[0].gpSec/sum[1].gpSec, sum[0].dpSec/sum[1].dpSec,
		1.0, 1.0, 1.0,
		sum[2].hpwl/sum[1].hpwl, sum[2].gpSec/sum[1].gpSec, sum[2].dpSec/sum[1].dpSec)
}

// ---------------------------------------------------------------- table 3

func table3() {
	fmt.Println("== Table 3: Ablation of the operator-level optimizations ==")
	fmt.Printf("(simulated time per GP iteration over %d fixed iterations;\n", *iters)
	fmt.Println(" Xplace = 100%; paper shape: none 159%, +OR 113%, +OC 108%,")
	fmt.Println(" +OE 104%, DREAMPlace 296%)")
	fmt.Println()
	type cfg struct {
		name           string
		or, oc, oe, os bool
		mode           placer.Mode
	}
	cfgs := []cfg{
		{"none", false, false, false, false, placer.ModeXplace},
		{"+OR", true, false, false, false, placer.ModeXplace},
		{"+OR+OC", true, true, false, false, placer.ModeXplace},
		{"+OR+OC+OE", true, true, true, false, placer.ModeXplace},
		{"Xplace(all)", true, true, true, true, placer.ModeXplace},
		{"DREAMPlace", false, false, false, false, placer.ModeBaseline},
	}
	specs := subset(benchgen.Catalog2005(), 3)
	perIter := make(map[string][]float64) // cfg -> per-design ms/iter
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2005, *seed)
		for _, c := range cfgs {
			opts := placer.Defaults()
			opts.Mode = c.mode
			opts.OperatorReduction = c.or
			opts.OperatorCombination = c.oc
			opts.OperatorExtraction = c.oe
			opts.OperatorSkipping = c.os
			opts.Seed = *seed
			e := engine()
			p, err := placer.New(d, e, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "table3:", err)
				return
			}
			res, err := p.RunIterations(*iters)
			if err != nil {
				fmt.Fprintln(os.Stderr, "table3:", err)
				return
			}
			perIter[c.name] = append(perIter[c.name],
				res.SimTime.Seconds()*1000/float64(res.Iterations))
		}
	}
	header := fmt.Sprintf("%-12s", "config")
	for _, s := range specs {
		header += fmt.Sprintf(" %10s", s.Name)
	}
	fmt.Println(header + "        Avg")
	printRow := func(name string, ratio bool) {
		row := fmt.Sprintf("%-12s", name)
		var avg float64
		for i := range perIter[name] {
			v := perIter[name][i]
			if ratio {
				v = 100 * v / perIter["Xplace(all)"][i]
				row += fmt.Sprintf(" %9.0f%%", v)
			} else {
				row += fmt.Sprintf(" %10.3f", v)
			}
			avg += v
		}
		avg /= float64(len(perIter[name]))
		if ratio {
			row += fmt.Sprintf(" %9.0f%%", avg)
		} else {
			row += fmt.Sprintf(" %10.3f", avg)
		}
		fmt.Println(row)
	}
	for _, c := range cfgs {
		printRow(c.name, true)
	}
	fmt.Println()
	fmt.Println("absolute ms/iter:")
	printRow("Xplace(all)", false)
	printRow("DREAMPlace", false)
	fmt.Println()
}

// ---------------------------------------------------------------- table 4

func table4() {
	fmt.Println("== Table 4: HPWL, OVFL-5 and runtime on the ISPD 2015 benchmarks ==")
	fmt.Println("(fence regions removed; paper shape: Xplace ~2.8x GP speedup,")
	fmt.Println(" equal HPWL and OVFL-5)")
	fmt.Println()
	specs := subset(benchgen.Catalog2015(), 3)
	route := &xplace.RouteOptions{Grid: 64, Capacity: 3}
	fmt.Printf("%-16s | %12s %8s %8s %8s | %12s %8s %8s %8s\n",
		"", "DREAMPlace", "OVFL-5", "GP/s", "DP/s", "Xplace", "OVFL-5", "GP/s", "DP/s")
	fmt.Printf("%-16s | %12s %8s %8s %8s | %12s %8s %8s %8s\n",
		"design", "HPWL", "", "", "", "HPWL", "", "", "")
	var sum [2]flowRow
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2015, *seed)
		name := s.Name
		if s.Fence {
			name += "+" // dagger: fence constraints removed
		}
		base := xplace.BaselinePlacement()
		base.Seed = *seed
		rb := runFlow(d, base, route)
		xp := defaultPlacement()
		xp.Seed = *seed
		rx := runFlow(d, xp, route)
		fmt.Printf("%-16s | %12.4g %8.2f %8.2f %8.2f | %12.4g %8.2f %8.2f %8.2f\n",
			name, rb.hpwl, rb.ovfl5, rb.gpSec, rb.dpSec, rx.hpwl, rx.ovfl5, rx.gpSec, rx.dpSec)
		for i, r := range []flowRow{rb, rx} {
			sum[i].hpwl += r.hpwl
			sum[i].ovfl5 += r.ovfl5
			sum[i].gpSec += r.gpSec
			sum[i].dpSec += r.dpSec
		}
	}
	fmt.Printf("%-16s | %12.4g %8.2f %8.2f %8.2f | %12.4g %8.2f %8.2f %8.2f\n",
		"Sum", sum[0].hpwl, sum[0].ovfl5, sum[0].gpSec, sum[0].dpSec,
		sum[1].hpwl, sum[1].ovfl5, sum[1].gpSec, sum[1].dpSec)
	ovflRatio := 1.0
	if sum[1].ovfl5 > 0 {
		ovflRatio = sum[0].ovfl5 / sum[1].ovfl5
	}
	fmt.Printf("%-16s | %12.4f %8.3f %8.3f %8.3f | %12.4f %8.3f %8.3f %8.3f\n\n",
		"Ratio",
		sum[0].hpwl/sum[1].hpwl, ovflRatio,
		sum[0].gpSec/sum[1].gpSec, sum[0].dpSec/sum[1].dpSec,
		1.0, 1.0, 1.0, 1.0)
}

// --------------------------------------------------------------- figure 2

func figure2() {
	fmt.Println("== Figure 2(a): operator extraction dataflow ==")
	fmt.Println("(kernel trace of one GP iteration; with OE the cell density map")
	fmt.Println(" is scattered ONCE and reused for the total map and OVFL)")
	fmt.Println()
	d, _ := xplace.GenerateBenchmark("adaptec1", 0.005, *seed)
	for _, oe := range []bool{true, false} {
		e := kernel.New(kernel.Options{Workers: *workers, Trace: true})
		opts := placer.Defaults()
		opts.OperatorExtraction = oe
		opts.OperatorSkipping = false
		p, err := placer.New(d, e, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure2:", err)
			return
		}
		if _, err := p.RunIterations(1); err != nil {
			fmt.Fprintln(os.Stderr, "figure2:", err)
			return
		}
		var densOps []string
		for _, op := range e.Trace() {
			if strings.HasPrefix(op, "density.") || op == "poisson.energy" {
				densOps = append(densOps, op)
			}
		}
		fmt.Printf("OE=%v density-path kernels: %s\n", oe, strings.Join(densOps, " -> "))
	}
	fmt.Println()
	fmt.Println("== Figure 2(b): hybrid numerical + autograd gradients ==")
	fmt.Println("(a user-defined loss differentiated by the autograd engine is")
	fmt.Println(" accumulated onto the numerically computed placement gradient;")
	fmt.Println(" exercised by placer.Options.ExtraGradient — see")
	fmt.Println(" TestExtraGradientHook and the tensor package's custom-op tests)")
	fmt.Println()
}

// --------------------------------------------------------------- figure 3

func figure3() {
	fmt.Println("== Figure 3 / §4.3: the Fourier neural operator ==")
	m := xplace.NewModel(xplace.DefaultModelConfig())
	fmt.Printf("paper-scale model parameters: %d (paper: 471k, '60%% of U-Net')\n\n", m.ParamCount())

	small := xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: *seed}
	sm := xplace.NewModel(small)
	train := xplace.GenerateTrainingSamples(24, 16, 16, *seed)
	testLo := xplace.GenerateTrainingSamples(8, 16, 16, *seed+100)
	testHi := xplace.GenerateTrainingSamples(8, 32, 32, *seed+200)

	fmt.Println("training curve (rel-L2, small config for speed):")
	sm.Train(train, xplace.TrainOptions{
		Epochs: 30, LR: 2e-3, Seed: *seed,
		Log: func(ep int, loss float64) {
			if ep%5 == 0 || ep == 29 {
				fmt.Printf("  epoch %3d  loss %.4f\n", ep, loss)
			}
		},
	})
	fmt.Printf("\nheld-out 16x16 x-field rel-L2:          %.3f\n", sm.Evaluate(testLo))
	fmt.Printf("resolution transfer to 32x32:           %.3f (model never saw 32x32)\n", sm.Evaluate(testHi))
	fmt.Printf("y-field via the flip trick:             %.3f\n", sm.EvaluateFlipY(testLo))
	fmt.Println()
}

// --------------------------------------------------------------- figure r

func figureR() {
	fmt.Println("== §3.1.4: r = lambda*|gradD| / |gradWL| over the GP run ==")
	fmt.Println("(ultra-small early — justifying operator skipping — then rising)")
	fmt.Println()
	d, _ := xplace.GenerateBenchmark("adaptec1", 0.005, *seed)
	opts := placer.Defaults()
	opts.OperatorSkipping = false // record the true r every iteration
	opts.Seed = *seed
	p, err := placer.New(d, engine(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figureR:", err)
		return
	}
	res, err := p.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figureR:", err)
		return
	}
	hist := res.Recorder.History()
	maxR := 0.0
	for _, rec := range hist {
		if rec.R > maxR {
			maxR = rec.R
		}
	}
	step := len(hist) / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(hist); i += step {
		rec := hist[i]
		bar := int(40 * rec.R / maxR)
		fmt.Printf("iter %4d  r=%-10.4g %s\n", rec.Iter, rec.R, strings.Repeat("#", bar))
	}
	below := 0
	for _, rec := range hist[:min(100, len(hist))] {
		if rec.R < 0.01 {
			below++
		}
	}
	fmt.Printf("\niterations with r < 0.01 among the first 100: %d\n\n", below)
	_ = sort.Float64s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
