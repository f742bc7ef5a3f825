package main

import (
	"os"
	"testing"
	"time"
)

// TestServeMixShortRun drives the serve-mix workload for a moment with
// both clients, so the race detector sees the shared request stream and
// client log.
func TestServeMixShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("places designs")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the job store goes under outDir
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	o, err := runServe(config{workload: "serve-mix", seed: 1, seconds: time.Second, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
	}
	for _, d := range endToEnd {
		if d.name != "success_share" && d.name != "peak_rss_mb" && !(o.vals[d.name] > 0) {
			t.Errorf("%s = %v, want > 0", d.name, o.vals[d.name])
		}
	}
}
