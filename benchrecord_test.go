package xplace

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"xplace/internal/obs"
)

// TestCheckedInBenchRecord validates the committed bench-trajectory
// baseline that `make bench-smoke` gates against: it parses under the
// current schema, carries all seven pinned configurations, shows the
// paper's OC saving (the fused config launches strictly fewer kernels than
// the unfused one over the same iterations), carries the poisson512 micro
// timings, and survives a write/read round trip unchanged. A schema change
// that breaks this test must re-baseline BENCH_12.json
// (make bench-trajectory) in the same commit.
func TestCheckedInBenchRecord(t *testing.T) {
	fh, err := os.Open("BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	rec, err := obs.ReadBenchRecord(fh)
	if err != nil {
		t.Fatal(err)
	}

	if len(rec.Runs) != 7 {
		t.Fatalf("baseline record has %d configs, want 7", len(rec.Runs))
	}
	runs := map[string]BenchRun{}
	for _, r := range rec.Runs {
		runs[r.Config] = r
	}
	for _, want := range []string{
		"baseline", "xplace-unfused", "xplace",
		"xplace-trunc", "xplace-adaptive", "xplace-lbub", "xplace-nn",
	} {
		if _, ok := runs[want]; !ok {
			t.Fatalf("baseline record missing config %q", want)
		}
	}
	fused, unfused := runs["xplace"], runs["xplace-unfused"]
	if fused.Iterations != unfused.Iterations {
		t.Fatalf("iteration mismatch: fused %d, unfused %d", fused.Iterations, unfused.Iterations)
	}
	if fused.Launches >= unfused.Launches {
		t.Errorf("operator combination saved nothing: fused %d launches, unfused %d",
			fused.Launches, unfused.Launches)
	}
	if base := runs["baseline"]; base.Launches <= unfused.Launches {
		t.Errorf("autograd baseline launched %d kernels <= unfused Xplace's %d",
			base.Launches, unfused.Launches)
	}

	// The poisson512 micro section carries the full and truncated solve
	// timings.
	micro := map[string]bool{}
	for _, m := range rec.Micro {
		micro[m.Name+"/"+m.Variant] = true
	}
	for _, want := range []string{"poisson512/full", "poisson512/truncated"} {
		if !micro[want] {
			t.Errorf("micro section missing %q (have %v)", want, micro)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteBenchRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	again, err := obs.ReadBenchRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, again) {
		t.Error("bench record changed across a write/read round trip")
	}
}
