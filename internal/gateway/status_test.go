package gateway

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestGatewayStatusKeys pins the gateway tier's status JSON key set per
// outcome to the set it served before the schema was shared with the
// workers. (A cached job carries no progress: a worker streams none for
// it.)
func TestGatewayStatusKeys(t *testing.T) {
	keys := func(v any) string {
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
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: keys\n  %s\nwant\n  %s", name, got, want)
		}
	}
	start := func(opts Options) *Gateway {
		t.Helper()
		g, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeGateway(t, g) })
		return g
	}
	submit := func(g *Gateway, seed int64, allowDraft bool) *Job {
		t.Helper()
		req := testRequest(seed)
		req.AllowDraft = allowDraft
		j, err := g.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Queued: routed, no progress yet (the fake's first iteration is 2s out).
	slow := newFakeWorker(t, 2*time.Second, 3)
	q := submit(start(fastOpts(slow.name())), 1, false).Status()
	check("queued "+q.State, keys(q), "id label node remote_id state submitted")

	w := newFakeWorker(t, time.Millisecond, 5)
	g := start(fastOpts(w.name()))
	st := waitDone(t, submit(g, 2, false), 15*time.Second)
	check("succeeded "+st.State, keys(st), "finished hpwl id iterations label node progress remote_id started state submitted")
	st = waitDone(t, submit(g, 2, false), 15*time.Second)
	check("cached "+st.State, keys(st), "cached finished hpwl id iterations label node remote_id started state submitted")

	fw := newFakeWorker(t, time.Millisecond, 5)
	fw.fallback = "lbub"
	st = waitDone(t, submit(start(fastOpts(fw.name())), 3, false), 15*time.Second)
	check("fallback "+st.State, keys(st), "fallback finished hpwl id iterations label node progress remote_id started state submitted")

	// Failed at the gateway: the only worker dies mid-run and no node
	// takes the failover within RouteWait.
	dw := newFakeWorker(t, 10*time.Millisecond, 500)
	opts := fastOpts(dw.name())
	opts.RouteWait = 300 * time.Millisecond
	j := submit(start(opts), 4, false)
	for deadline := time.Now().Add(30 * time.Second); j.Status().Progress == nil || j.Status().Progress.Iter < 3; {
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	dw.die()
	st = waitDone(t, j, 30*time.Second)
	check("failed "+st.State, keys(st), "error failovers finished id label progress started state submitted")

	// Draft tier: the fleet is at backpressure and the job opted in.
	full := newFakeWorker(t, time.Millisecond, 3)
	full.setFull(true)
	opts = fastOpts(full.name())
	opts.Draft = DraftOptions{Enabled: true, EngineWorkers: 1, MaxIter: 20}
	st = waitDone(t, submit(start(opts), 5, true), 60*time.Second)
	check("draft "+st.State, keys(st), "draft finished hpwl id iterations label progress remote_id started state submitted")
}
