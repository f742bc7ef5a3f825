package jobapi

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"xplace/internal/geom"
	"xplace/internal/jobstore"
	"xplace/internal/netlist"
	"xplace/internal/serve"
)

func newScheduler(t *testing.T, opts serve.Options) *serve.Scheduler {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func submit(t *testing.T, s *serve.Scheduler, spec serve.Spec) *serve.Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func specOf(t *testing.T, r Request) serve.Spec {
	t.Helper()
	spec, err := r.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func wait(t *testing.T, j *serve.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(time.Minute):
		t.Fatalf("job %d did not finish: %+v", j.ID(), j.Status())
	}
}

func wireStatus(j *serve.Job) Status { return NewStatus(j.Status()) }

// keys returns the sorted JSON object keys of v.
func keys(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// divergentDesign makes the Nesterov flow diverge on its first wirelength
// evaluation (pin offsets of ±1e40), so the scheduler's lbub fallback
// answers the job.
func divergentDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("diverge", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell("a", 2, 2, 10, 10, netlist.Movable)
	b := d.AddCell("b", 2, 2, 90, 90, netlist.Movable)
	d.AddNet("n0")
	d.AddPin(a, 1e40, 1e40)
	d.AddPin(b, -1e40, -1e40)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkerStatusKeys pins the worker tier's status JSON key set per
// outcome to the set the daemon served before the schema was shared.
func TestWorkerStatusKeys(t *testing.T) {
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := newScheduler(t, serve.Options{Engines: 1, QueueCap: 4, EngineWorkers: 1, Store: store})
	small := Request{Bench: "fft_1", Scale: 0.002, MaxIter: 20}

	ok := submit(t, s, specOf(t, small))
	wait(t, ok)
	cached := submit(t, s, specOf(t, small))
	wait(t, cached)
	failed := submit(t, s, specOf(t, Request{Bench: "fft_1", Scale: 0.002, Grid: 100})) // grid not a power of two
	wait(t, failed)
	fb := specOf(t, Request{Bench: "fft_1", MaxIter: 50})
	fb.Design, fb.Key = divergentDesign(t), ""
	fallback := submit(t, s, fb)
	wait(t, fallback)

	long := specOf(t, Request{Bench: "fft_1", Scale: 0.01, MaxIter: 500000})
	long.Options.Sched.MinIter = 500000
	running := submit(t, s, long)
	queued := submit(t, s, specOf(t, Request{Bench: "fft_1", Scale: 0.002, Seed: 9}))
	queuedKeys := keys(t, wireStatus(queued))
	s.Cancel(running.ID())
	s.Cancel(queued.ID())

	for _, tc := range []struct {
		name  string
		j     *serve.Job
		state serve.State
		keys  string
	}{
		{"succeeded", ok, serve.Succeeded, "finished hpwl id iterations label overflow progress started state submitted"},
		{"cached", cached, serve.Succeeded, "cached finished hpwl id iterations label overflow state submitted"},
		{"failed", failed, serve.Failed, "error finished id label started state submitted"},
		{"fallback", fallback, serve.Succeeded, "fallback finished hpwl id iterations label progress started state submitted"},
	} {
		st := wireStatus(tc.j)
		if st.State != tc.state.String() {
			t.Errorf("%s: state %q, want %v (%+v)", tc.name, st.State, tc.state, st)
		}
		if got := keys(t, st); got != tc.keys {
			t.Errorf("%s: keys\n  %s\nwant\n  %s", tc.name, got, tc.keys)
		}
	}
	if want := "id label state submitted"; queuedKeys != want {
		t.Errorf("queued: keys %q, want %q", queuedKeys, want)
	}
}
