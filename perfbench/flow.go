package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"xplace"
	"xplace/internal/jobapi"
	"xplace/internal/nn"
)

// The flow workloads place one generated design per seed. adaptec1 at
// scale 0.01 (about 2.1k cells with macros, utilisation 0.57) is the
// smallest ISPD 2005 instance on which the density/Poisson group and DP
// dominate a converged run.
const (
	flowBench = "adaptec1"
	flowScale = 0.01
	// detailReruns is how often the traced run repeats DP on one legal
	// placement to expose run-to-run differences.
	detailReruns = 3
	// detailRerunScale is the scale of the design the flow workloads rerun
	// DP on. On adaptec1 at flowScale the detail pass happens to land on
	// one placement whatever its map order; at 0.02 it does not.
	detailRerunScale = 0.02
)

// fnoSeed is the seed flow-nn trains its FNO from: cmd/xbench's default,
// the model its nn-blend baseline uses. The model is not drawn from the
// workload seed because some training seeds give a model that makes GP
// diverge: with models trained from seeds 12 and 15, GP on adaptec1
// ends at overflow 0.70 and 0.36 instead of 0.07, which would fail the
// run instead of timing it.
const fnoSeed = 1

// fnoConfig is the small FNO cmd/xbench trains in process.
var fnoConfig = xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: fnoSeed}

// trainFNO trains fnoConfig on 24 random 32x32 density maps for 25
// epochs, as cmd/xbench does.
func trainFNO() *xplace.Model {
	m := xplace.NewModel(fnoConfig)
	m.Train(xplace.GenerateTrainingSamples(24, 32, 32, fnoSeed),
		xplace.TrainOptions{Epochs: 25, LR: 2e-3, Seed: fnoSeed})
	return m
}

// placementOptions are the GP options of every flow-workload placement:
// default Xplace options on the float64 reference backend.
func placementOptions(seed int64) xplace.PlacementOptions {
	po := xplace.DefaultPlacement()
	po.Seed = seed
	po.Backend = xplace.Float64Backend()
	return po
}

// flowEnv is one set-up flow workload: the design, the engine every Flow
// call runs on, and (flow-nn) the trained field model.
type flowEnv struct {
	seed  int64
	d     *xplace.Design
	eng   *xplace.Engine
	model *xplace.Model
}

func setupFlow(seed int64, withNN bool, workers int) (*flowEnv, error) {
	d, err := xplace.GenerateBenchmark(flowBench, flowScale, seed)
	if err != nil {
		return nil, err
	}
	env := &flowEnv{seed: seed, d: d, eng: xplace.NewEngine(workers, -1)}
	if withNN {
		env.model = trainFNO()
	}
	return env, nil
}

func (e *flowEnv) close() { e.eng.Close() }

// predictor returns the field predictor of a Flow call: nil without a
// model, else the model's nn.Predictor, wrapped to record a span per
// PredictField call when rec is set.
func (e *flowEnv) predictor(rec *recorder, op int) xplace.FieldPredictor {
	if e.model == nil {
		return nil
	}
	p := &nn.Predictor{M: e.model}
	if rec == nil {
		return p
	}
	return &timedPredictor{p: p, rec: rec, op: op}
}

// timedPredictor records a span around each PredictField call.
type timedPredictor struct {
	p   xplace.FieldPredictor
	rec *recorder
	op  int
}

func (t *timedPredictor) PredictField(density []float64, nx, ny int, exOut, eyOut []float64) {
	s := t.rec.begin("nn.Predictor.PredictField", t.op, -1)
	t.p.PredictField(density, nx, ny, exOut, eyOut)
	t.rec.end(s)
}

// flow runs one Session.Flow with default Xplace options on the float64
// backend. tr and reg, when set, receive the program's own spans and
// series for this call.
func (e *flowEnv) flow(ctx context.Context, tr *xplace.Tracer, reg *xplace.MetricsRegistry, pred xplace.FieldPredictor) (*xplace.FlowResult, error) {
	opts := []xplace.Option{xplace.WithEngine(e.eng)}
	if tr != nil {
		opts = append(opts, xplace.WithTracer(tr), xplace.WithMetrics(reg))
	}
	s := xplace.NewSession(opts...)
	defer s.Close()
	po := placementOptions(e.seed)
	po.Predictor = pred
	return s.Flow(ctx, e.d, xplace.FlowOptions{Placement: po})
}

// A run sets its workload up at least minSetups times, and more while
// the setups have taken less than setupBudget in all, up to maxSetups;
// setup_s is the median. Cheap setups are repeated more so that their
// median is steady; flow-nn's (FNO training) is repeated minSetups times.
const (
	minSetups   = 3
	maxSetups   = 64
	setupBudget = 2 * time.Second
)

// setupTimes sets a workload up as described above (once when traced,
// which reports no setup time), keeping the last environment, and
// returns it with the median setup time in seconds.
func setupTimes[E any](traced bool, setup func() (E, error), discard func(E)) (E, float64, error) {
	var env E
	var times []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			discard(env)
		}
		start := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		if traced {
			break
		}
	}
	return env, median(times), nil
}

// runFlow measures the flow or flow-nn workload: Flow calls back to back
// until the measuring time is used up.
func runFlow(cfg config, withNN bool) (*outcome, error) {
	env, setupS, err := setupTimes(cfg.traced,
		func() (*flowEnv, error) { return setupFlow(cfg.seed, withNN, cfg.workers) },
		(*flowEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	ref, err := referenceHPWL(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if ref == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no HPWL recorded for %s seed %d; checking calls against the run's first\n",
			cfg.workload, cfg.seed)
	}

	o := newOutcome(cfg.traced)
	ctx := context.Background()
	// A traced run alternates untraced and traced calls, starting with an
	// untraced one, so the tracing overhead compares calls made under the
	// same conditions; only the traced calls give per-layer figures.
	minOps := 1
	if cfg.traced {
		minOps = 2
	}
	var times, untraced, hpwls []float64
	layers := samples{}
	var last *xplace.FlowResult
	start := time.Now()
	for op := 0; op < minOps || time.Since(start) < cfg.seconds; op++ {
		traceOp := cfg.traced && op%2 == 1
		var tr *xplace.Tracer
		var reg *xplace.MetricsRegistry
		var rec *recorder
		if traceOp {
			tr, reg, rec = xplace.NewTracer(), xplace.NewMetricsRegistry(), o.rec
		}
		s := rec.begin("xplace.Session.Flow", op, -1)
		fr, err := env.flow(ctx, tr, reg, env.predictor(rec, op))
		d := rec.end(s)
		o.attempted++
		if err != nil {
			o.fail(fmt.Sprintf("Flow call %d", op), err)
			continue
		}
		if cfg.traced && !traceOp {
			untraced = append(untraced, d.Seconds())
		} else {
			times = append(times, d.Seconds())
		}
		if err := checkFlow(fr, nil, ref); err != nil {
			o.fail(fmt.Sprintf("Flow call %d", op), err)
			continue
		}
		if ref == 0 {
			ref = fr.HPWLFinal
		}
		hpwls = append(hpwls, fr.HPWLFinal)
		last = fr
		fmt.Fprintf(os.Stderr, "perfbench: Flow %d: %.3f s (GP %.3f s, %d iterations; LG %.3f s; DP %.3f s), final HPWL %.1f\n",
			op, d.Seconds(), fr.GPTime.Seconds(), fr.GP.Iterations, fr.LGTime.Seconds(), fr.DPTime.Seconds(), fr.HPWLFinal)
		if traceOp {
			flowLayers(layers, fr, tr, reg, len(o.rec.durations("nn.Predictor.PredictField", op)))
		}
	}
	elapsed := time.Since(start).Seconds()
	if last == nil {
		return nil, fmt.Errorf("no Flow call succeeded")
	}

	if !cfg.traced {
		o.vals["setup_s"] = setupS
		o.vals["flow_s"] = median(times)
		o.vals["hpwl_final"] = median(hpwls)
		o.vals["jobs_per_s"] = float64(len(times)) / elapsed
		o.vals["latency_p50_s"] = median(times)
		o.vals["latency_p90_s"] = percentile(times, 90)
		o.vals["placed_latency_p50_s"] = median(times)
		return o, nil
	}

	layers.add("trace.overhead_ratio", ratio(median(times), median(untraced)))
	if err := flowDetailRerun(o, layers, env); err != nil {
		return nil, err
	}
	pred := env.predictor(nil, 0)
	if pred == nil {
		pred = &nn.Predictor{M: xplace.NewModel(fnoConfig)}
	}
	req := jobapi.Request{Bench: flowBench, Scale: flowScale, Seed: cfg.seed}
	if err := layerCalls(o.rec, layers, env.eng, env.d, last.FinalX, last.FinalY, pred, req); err != nil {
		return nil, err
	}
	for name, vs := range layers {
		o.vals[name] = median(vs)
	}
	return o, nil
}

// flowLayers adds one traced Flow call's per-layer figures: op-group and
// stage times from the program's spans, the placer's optimisation counters
// from its series, and the engine accounting of the GP run.
func flowLayers(l samples, fr *xplace.FlowResult, tr *xplace.Tracer, reg *xplace.MetricsRegistry, nnCalls int) {
	g := opGroups(tr.Events())
	gp := fr.GP
	placerLayers(l, gp, g)
	l.add("placer.os_skips", float64(reg.Counter("xplace_os_density_skips_total", "").Value()))
	l.add("placer.oe_reuses", float64(reg.Counter("xplace_oe_map_reuses_total", "").Value()))
	l.add("placer.oc_launches_saved", float64(reg.Counter("xplace_oc_fused_launches_saved_total", "").Value()))
	l.add("nn.calls", float64(nnCalls))
	l.add("legal.s", g["flow.legalize"])
	l.add("legal.hpwl_ratio", ratio(fr.HPWLLegal, fr.HPWLGP))
	l.add("detail.s", g["flow.detail"])
	l.add("detail.hpwl_ratio", ratio(fr.HPWLFinal, fr.HPWLLegal))
}

// placerLayers adds the GP loop's figures of one placement: wall time,
// iterations, op-group times and the engine accounting.
func placerLayers(l samples, gp *xplace.PlacementResult, groups map[string]float64) {
	l.add("placer.gp_s", gp.WallTime.Seconds())
	l.add("placer.iterations", float64(gp.Iterations))
	l.add("placer.iter_ms", 1e3*ratio(gp.WallTime.Seconds(), float64(gp.Iterations)))
	for _, g := range []string{"op.wirelength", "op.density", "op.nn", "op.optim", "op.grad_assembly", "op.sched_record"} {
		l.add(g+"_s", groups[g])
	}
	st := gp.Stats
	l.add("kernel.launches", float64(st.Launches))
	l.add("kernel.syncs", float64(st.Syncs))
	l.add("kernel.arena_peak_bytes", float64(st.Arena.Peak))
	l.add("kernel.arena_misses", float64(st.Arena.Misses))
	l.add("kernel.sim_s", gp.SimTime.Seconds())
	l.add("kernel.sim_to_wall", ratio(gp.SimTime.Seconds(), gp.WallTime.Seconds()))
}

// flowDetailRerun places adaptec1 at detailRerunScale (numerical GP, the
// run's seed) and reruns DP on its legalized result (see detailRerun).
func flowDetailRerun(o *outcome, l samples, env *flowEnv) error {
	d, err := xplace.GenerateBenchmark(flowBench, detailRerunScale, env.seed)
	if err != nil {
		return err
	}
	s := xplace.NewSession(xplace.WithEngine(env.eng))
	defer s.Close()
	po := placementOptions(env.seed)
	span := o.rec.begin("xplace.Session.Place", layerOp, -1)
	gp, err := s.Place(context.Background(), d, po)
	o.rec.end(span)
	if err != nil {
		return err
	}
	return detailRerun(o, l, d, gp, false)
}
