package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"xplace"
	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/nn"
	"xplace/internal/serve"
)

// serveClients is the number of closed-loop clients; the scheduler gets
// one engine per client and splits the cores between them.
const serveClients = 2

// waitLimit bounds one request's wait; a request still running after it
// counts as failed.
const waitLimit = 120 * time.Second

// serveEnv is one set-up serve-mix workload: a durable job store in its
// own directory and a scheduler over it.
type serveEnv struct {
	store *jobstore.Store
	sched *serve.Scheduler
}

func setupServe(dir string, workers int) (*serveEnv, error) {
	st, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	sch, err := serve.New(serve.Options{
		Engines:       serveClients,
		EngineWorkers: workers,
		Store:         st,
		Rehydrate:     jobapi.Rehydrate,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &serveEnv{store: st, sched: sch}, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	if err := e.sched.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scheduler shutdown:", err)
	}
	if err := e.store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: store close:", err)
	}
}

// served is one completed request as the client saw it.
type served struct {
	key       string
	latency   float64 // ToSpec call to Wait return, s
	cached    bool
	queueWait float64 // Submitted -> Started, s (placed jobs)
	run       float64 // Started -> Finished, s (placed jobs)
}

// serveLog gathers the clients' observations.
type serveLog struct {
	mu       sync.Mutex
	o        *outcome
	reqs     []served
	results  map[string]*xplace.PlacementResult // first result per key
	layers   samples
	rejected int
}

// runServe measures the serve-mix workload.
func runServe(cfg config) (*outcome, error) {
	workers := cfg.workers / serveClients
	if workers < 1 {
		workers = 1
	}
	root := filepath.Join(outDir, "store-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(root)
	setups := 0
	env, setupS, err := setupTimes(cfg.traced, func() (*serveEnv, error) {
		setups++
		return setupServe(filepath.Join(root, strconv.Itoa(setups)), workers)
	}, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()

	o := newOutcome(cfg.traced)
	seen := &serveLog{o: o, results: make(map[string]*xplace.PlacementResult), layers: samples{}}
	stream := newRequestStream(cfg.seed)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.seconds {
				i, req := stream.next()
				req.Trace = cfg.traced
				seen.request(env.sched, i, req)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	reg := env.sched.Registry()
	env.close()
	closed = true

	var lat, placedLat, hitLat, runs, waits []float64
	distinctMissKeys := make(map[string]bool)
	for _, r := range seen.reqs {
		lat = append(lat, r.latency)
		if r.cached {
			hitLat = append(hitLat, r.latency)
			continue
		}
		placedLat = append(placedLat, r.latency)
		runs = append(runs, r.run)
		waits = append(waits, r.queueWait)
		distinctMissKeys[r.key] = true
	}
	var hpwl []float64
	for _, res := range seen.results {
		hpwl = append(hpwl, res.HPWL)
	}
	if len(hpwl) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}

	if !cfg.traced {
		o.vals["setup_s"] = setupS
		o.vals["flow_s"] = median(runs)
		o.vals["hpwl_final"] = geomean(hpwl)
		o.vals["jobs_per_s"] = float64(len(seen.reqs)) / elapsed
		o.vals["latency_p50_s"] = median(lat)
		o.vals["latency_p90_s"] = percentile(lat, 90)
		o.vals["placed_latency_p50_s"] = median(placedLat)
		return o, nil
	}

	l := seen.layers
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	hits, misses := counter("xserve_cache_hits_total"), counter("xserve_cache_misses_total")
	placed := float64(len(runs))
	l.add("serve.queue_wait_s", median(waits))
	l.add("serve.run_s", median(runs))
	l.add("serve.rejected", float64(seen.rejected))
	l.add("serve.hit_latency_p50_s", median(hitLat))
	l.add("jobstore.cache_hit_ratio", ratio(hits, hits+misses))
	l.add("jobstore.dup_misses", misses-float64(len(distinctMissKeys)))
	l.add("jobstore.wal_appends", counter("xserve_store_wal_appends_total"))
	l.add("jobstore.store_errors", counter("xserve_store_errors_total"))
	l.add("placer.os_skips", ratio(counter("xplace_os_density_skips_total"), placed))
	l.add("placer.oe_reuses", ratio(counter("xplace_oe_map_reuses_total"), placed))
	l.add("placer.oc_launches_saved", ratio(counter("xplace_oc_fused_launches_saved_total"), placed))
	l.add("nn.calls", 0)

	// Layers serve-mix reaches only through the scheduler are timed from
	// outside on its first design: LG and DP on its placed result, the
	// single-layer calls, and the tracing overhead of Session.Place.
	first := stream.newKeys()[0]
	spec, err := first.ToSpec()
	if err != nil {
		return nil, err
	}
	res, ok := seen.results[spec.Key]
	if !ok {
		return nil, fmt.Errorf("the first request, %s, did not succeed", spec.Key)
	}
	eng := xplace.NewEngine(workers, -1)
	defer eng.Close()
	if err := detailRerun(o, l, spec.Design, res, true); err != nil {
		return nil, err
	}
	pred := &nn.Predictor{M: xplace.NewModel(fnoConfig)}
	if err := layerCalls(o.rec, l, eng, spec.Design, res.X, res.Y, pred, first); err != nil {
		return nil, err
	}
	overhead, err := placeOverhead(o, eng, spec)
	if err != nil {
		return nil, err
	}
	l.add("trace.overhead_ratio", overhead)
	for name, vs := range l {
		o.vals[name] = median(vs)
	}
	return o, nil
}

// request runs one request the way a client of the service does:
// ToSpec, Submit, Wait. It checks the job's outcome and that every result
// for a cache key, placed or served from the cache, is the same.
func (g *serveLog) request(sch *serve.Scheduler, op int, req jobapi.Request) {
	rec := g.o.rec
	whole := rec.begin("serve.request", op, -1)
	s := rec.begin("jobapi.Request.ToSpec", op, whole.id)
	spec, err := req.ToSpec()
	toSpec := rec.end(s)
	if err != nil {
		g.fail(op, err, false)
		return
	}
	s = rec.begin("serve.Scheduler.Submit", op, whole.id)
	job, err := sch.Submit(spec)
	submit := rec.end(s)
	if err != nil {
		g.fail(op, err, errors.Is(err, serve.ErrQueueFull))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	s = rec.begin("serve.Job.Wait", op, whole.id)
	res, err := job.Wait(ctx)
	rec.end(s)
	latency := rec.end(whole)
	st := job.Status()
	if err := checkJob(st.State, res, err); err != nil {
		g.fail(op, err, false)
		return
	}
	r := served{key: spec.Key, latency: latency.Seconds(), cached: st.Cached}
	if !st.Cached {
		r.queueWait = st.Started.Sub(st.Submitted).Seconds()
		r.run = st.Finished.Sub(st.Started).Seconds()
	}
	var groups map[string]float64
	if t := job.Tracer(); t != nil && !st.Cached {
		groups = opGroups(t.Events())
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	g.o.attempted++
	if prev, ok := g.results[spec.Key]; ok && !sameResult(prev, res) {
		g.o.fail(fmt.Sprintf("request %d", op), fmt.Errorf("result for %s differs from an earlier one", spec.Key))
		return
	} else if !ok {
		g.results[spec.Key] = res
	}
	g.reqs = append(g.reqs, r)
	if rec != nil {
		g.layers.add("jobapi.to_spec_ms", 1e3*toSpec.Seconds())
		g.layers.add("serve.submit_ms", 1e3*submit.Seconds())
		if groups != nil {
			placerLayers(g.layers, res, groups)
		}
	}
}

func (g *serveLog) fail(op int, err error, rejected bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.o.attempted++
	if rejected {
		g.rejected++
	}
	g.o.fail(fmt.Sprintf("request %d", op), err)
}

// placeOverhead returns the tracing overhead of the placer on spec's
// design: the median wall time of traced Session.Place calls over that
// of untraced ones, alternating the two.
func placeOverhead(o *outcome, eng *xplace.Engine, spec serve.Spec) (float64, error) {
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		for _, withTrace := range []bool{false, true} {
			opts := []xplace.Option{xplace.WithEngine(eng)}
			name := "xplace.Session.Place"
			if withTrace {
				opts = append(opts, xplace.WithTracer(xplace.NewTracer()), xplace.WithMetrics(xplace.NewMetricsRegistry()))
				name += ".traced"
			}
			sess := xplace.NewSession(opts...)
			s := o.rec.begin(name, layerOp, -1)
			_, err := sess.Place(context.Background(), spec.Design, spec.Options)
			d := o.rec.end(s).Seconds()
			sess.Close()
			if err != nil {
				return 0, err
			}
			if withTrace {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	return ratio(median(traced), median(plain)), nil
}
