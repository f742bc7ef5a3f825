package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// BenchSchema is the version tag of the bench-trajectory record format.
// Bump it when a required field is added or a field's meaning changes;
// readers reject records with an unknown schema instead of guessing.
const BenchSchema = "xplace-bench/1"

// BenchRecord is the machine-readable outcome of one `xbench -json`
// bench-trajectory run: a set of BenchRun entries (one per placer
// configuration) over the same design/seed, comparable across commits,
// plus an optional Micro section of kernel-level timings (the Poisson
// solve ablation). Checked-in BENCH_*.json files are instances of this
// schema and back the CI bench-smoke regression gate.
type BenchRecord struct {
	Schema    string       `json:"schema"`
	CreatedAt string       `json:"created_at,omitempty"` // RFC 3339
	Note      string       `json:"note,omitempty"`
	Runs      []BenchRun   `json:"runs"`
	Micro     []BenchMicro `json:"micro,omitempty"`
}

// BenchRun is one placement run's record.
type BenchRun struct {
	Config     string  `json:"config"` // e.g. "baseline", "xplace-unfused", "xplace"
	Bench      string  `json:"bench"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	LaunchUS   int     `json:"launch_overhead_us"`
	Iterations int     `json:"iterations"`
	HPWL       float64 `json:"hpwl"`
	Overflow   float64 `json:"overflow"`
	WallMS     float64 `json:"wall_ms"`
	SimMS      float64 `json:"sim_ms"`
	Launches   int64   `json:"launches"`
	Syncs      int64   `json:"syncs"`
	ArenaPeak  int64   `json:"arena_peak_bytes"`
}

// BenchMicro is one kernel-level micro timing: a named operation (e.g.
// "poisson512") under one variant, in wall milliseconds per call. Micro
// timings are machine-dependent, so the smoke gate never compares them —
// they document the measured truncation ablation next to the trajectory
// it explains.
type BenchMicro struct {
	Name    string  `json:"name"`
	Variant string  `json:"variant,omitempty"` // e.g. "full", "truncated"
	Grid    int     `json:"grid,omitempty"`
	MS      float64 `json:"ms"` // wall milliseconds per call
}

// Validate checks the record's required fields: schema tag, at least one
// run, and per run a config name, bench name, positive iteration count,
// finite positive HPWL and a positive launch count.
func (r BenchRecord) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("obs: bench record schema %q, want %q", r.Schema, BenchSchema)
	}
	if len(r.Runs) == 0 {
		return errors.New("obs: bench record has no runs")
	}
	for i, run := range r.Runs {
		switch {
		case run.Config == "":
			return fmt.Errorf("obs: run %d missing config", i)
		case run.Bench == "":
			return fmt.Errorf("obs: run %d (%s) missing bench", i, run.Config)
		case run.Iterations <= 0:
			return fmt.Errorf("obs: run %d (%s) iterations = %d", i, run.Config, run.Iterations)
		case run.HPWL <= 0 || math.IsNaN(run.HPWL) || math.IsInf(run.HPWL, 0):
			return fmt.Errorf("obs: run %d (%s) hpwl = %v", i, run.Config, run.HPWL)
		case run.Launches <= 0:
			return fmt.Errorf("obs: run %d (%s) launches = %d", i, run.Config, run.Launches)
		}
	}
	for i, m := range r.Micro {
		switch {
		case m.Name == "":
			return fmt.Errorf("obs: micro %d missing name", i)
		case m.MS <= 0 || math.IsNaN(m.MS) || math.IsInf(m.MS, 0):
			return fmt.Errorf("obs: micro %d (%s) ms = %v", i, m.Name, m.MS)
		}
	}
	return nil
}

// Run returns the run with the given config name.
func (r BenchRecord) Run(config string) (BenchRun, bool) {
	for _, run := range r.Runs {
		if run.Config == config {
			return run, true
		}
	}
	return BenchRun{}, false
}

// WriteBenchRecord validates and serializes the record as indented JSON.
func WriteBenchRecord(w io.Writer, r BenchRecord) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchRecord deserializes and validates a record.
func ReadBenchRecord(rd io.Reader) (BenchRecord, error) {
	var r BenchRecord
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return BenchRecord{}, fmt.Errorf("obs: decoding bench record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return BenchRecord{}, err
	}
	return r, nil
}

// CompareBenchRecords is the bench-smoke regression gate: every run in
// baseline must exist in current (matched by config+bench), and the
// current HPWL must stay within the relative tolerance of the baseline's
// in BOTH directions — |got-want|/want <= tol (e.g. 0.05 for 5%). An
// unexpectedly better HPWL is also a changed trajectory: on the pinned
// bit-identical configs it means the numerics drifted, and the baseline
// must be re-recorded deliberately, not absorbed. Launch counts must match
// exactly for configs with the same launch-overhead setting — a changed
// launch count is a changed operator schedule.
func CompareBenchRecords(baseline, current BenchRecord, tol float64) error {
	var errs []error
	for _, want := range baseline.Runs {
		got, ok := current.Run(want.Config)
		if !ok || got.Bench != want.Bench {
			errs = append(errs, fmt.Errorf("config %q (bench %s) missing from current record", want.Config, want.Bench))
			continue
		}
		if rel := math.Abs(got.HPWL-want.HPWL) / want.HPWL; rel > tol {
			errs = append(errs, fmt.Errorf("config %q: HPWL %.6g drifted %.1f%% from baseline %.6g (tol %.0f%%)",
				want.Config, got.HPWL, rel*100, want.HPWL, tol*100))
		}
		if got.Iterations == want.Iterations && got.Launches != want.Launches {
			errs = append(errs, fmt.Errorf("config %q: %d launches in %d iters, baseline %d — operator schedule changed",
				want.Config, got.Launches, got.Iterations, want.Launches))
		}
	}
	return errors.Join(errs...)
}
