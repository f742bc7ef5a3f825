// Command perfbench is the repository benchmark. It runs one workload
// through the program's public entry points, checks every output, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"flow_s": {"value": 2.91, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd), measured
// with tracing off; with --trace 1 they are the per-layer ones (perLayer),
// measured from outside: spans the benchmark records around each call
// into a layer, plus the operator-group spans and series the program
// already emits (WithTracer, WithMetrics, Spec.Trace, Scheduler.Registry).
// The benchmark's spans are written to .bench_build/perfbench/.
//
// Workloads (all inputs are generated from --seed):
//
//	flow       Session.Flow (GP -> Tetris LG -> DP) to convergence on
//	           adaptec1 at scale 0.01, default Xplace options.
//	flow-nn    the same design and flow with the Xplace-NN sigma(omega)
//	           blend of a small FNO trained during setup. Runnable by
//	           name but not declared in BENCHMARK.json: on a shared
//	           2-vCPU host its Flow wall time (about 16 s, mostly serial
//	           FNO inference) spread 0.15-0.28 (quartile distance over
//	           median) across ten seeds, beyond the 0.25 regression bound.
//	serve-mix  an in-process serve.Scheduler with a durable job store;
//	           two closed-loop clients run ToSpec -> Submit -> Wait over a
//	           seeded request stream in which two thirds of the requests
//	           repeat an earlier cache key.
//
// Run it through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds what a run leaves behind (spans, the serve-mix job store),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workers  int // kernel parallelism available to the workload
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	vals              map[string]float64
	rec               *recorder // nil for untraced runs
}

func newOutcome(traced bool) *outcome {
	o := &outcome{vals: make(map[string]float64)}
	if traced {
		o.rec = newRecorder()
	}
	return o
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

var workloads = map[string]func(config) (*outcome, error){
	"flow":      func(c config) (*outcome, error) { return runFlow(c, false) },
	"flow-nn":   func(c config) (*outcome, error) { return runFlow(c, true) },
	"serve-mix": runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: flow | flow-nn | serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.String("record", "", "FROM:TO: record the final HPWL of seeds FROM..TO of a flow workload into "+referencePath+", then exit")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload flow|flow-nn|serve-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workers:  runtime.NumCPU(),
	}
	if *record != "" {
		if err := recordReferences(cfg, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.rec != nil {
		path := fmt.Sprintf("%s/spans-%s-seed%d.json", outDir, cfg.workload, cfg.seed)
		if err := o.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	o.vals["success_share"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	o.vals["peak_rss_mb"] = peakRSSMB()

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: o.vals[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
