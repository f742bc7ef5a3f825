package jobhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

func wireStatus(j *serve.Job) jobapi.Status { return jobapi.NewStatus(j.Status()) }

// TestEventStreamRoundTrip runs a real scheduler job through the shared
// writer and reads it back with the shared reader, dropping the first
// connection mid-stream and resuming with Last-Event-ID: every snapshot
// arrives exactly once and in order, and the done payload is the built
// status of the finished job.
func TestEventStreamRoundTrip(t *testing.T) {
	s, err := serve.New(serve.Options{Engines: 1, QueueCap: 2, EngineWorkers: 1, History: 100000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	mux := http.NewServeMux()
	Handle(mux, s, wireStatus, s.Draining())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec, err := (&jobapi.Request{Bench: "fft_1", Scale: 0.002, MaxIter: 60}).ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Options.Sched.MinIter = 60
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	get := func(ctx context.Context, lastID string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs/1/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First connection: keep ten snapshots, then drop. Whatever the reader
	// buffered past the tenth never reached this client.
	const keep = 10
	var got []placer.Snapshot
	ctx, drop := context.WithCancel(context.Background())
	resp := get(ctx, "")
	_, _ = ReadEvents(resp.Body, func(sn placer.Snapshot) {
		if len(got) < keep {
			got = append(got, sn)
			if len(got) == keep {
				drop()
			}
		}
	})
	resp.Body.Close()
	drop()
	if len(got) != keep {
		t.Fatalf("first connection delivered %d snapshots, want %d", len(got), keep)
	}

	resp = get(context.Background(), strconv.Itoa(got[keep-1].Iter))
	defer resp.Body.Close()
	done, err := ReadEvents(resp.Body, func(sn placer.Snapshot) { got = append(got, sn) })
	if err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	<-j.Done() // done was streamed, so the job is already terminal
	want, _, unfollow := j.Feed().Follow(1)
	unfollow()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %d snapshots, the job published %d (or they differ)", len(got), len(want))
	}
	if got[len(got)-1].Iter != j.Status().Iterations {
		t.Errorf("stream ended at iteration %d, job ran %d", got[len(got)-1].Iter, j.Status().Iterations)
	}
	gotDone, _ := json.Marshal(done)
	wantDone, _ := json.Marshal(wireStatus(j))
	if string(gotDone) != string(wantDone) {
		t.Errorf("done payload\n%s\nwant\n%s", gotDone, wantDone)
	}
}

// TestReadEventsEnds: a stream that does not end in a well-formed,
// terminal done event is an error, and a draining stream says so.
func TestReadEventsEnds(t *testing.T) {
	for name, tc := range map[string]struct {
		stream string
		want   error // nil: any non-nil error
	}{
		"draining":       {"event: draining\ndata: {}\n\n", ErrDraining},
		"eof":            {"id: 1\nevent: progress\ndata: {\"Iter\":1}\n\n", nil},
		"malformed done": {"event: done\ndata: {\"state\":\n\n", nil},
		"non-terminal":   {"event: done\ndata: {\"state\":\"running\"}\n\n", nil},
		"unknown state":  {"event: done\ndata: {\"state\":\"exploded\"}\n\n", nil},
		"empty done":     {"event: done\ndata: \n\n", nil},
	} {
		st, err := ReadEvents(strings.NewReader(tc.stream), func(placer.Snapshot) {})
		if err == nil || st != nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: ReadEvents = %+v, %v", name, st, err)
		}
	}
}

// FuzzReadEvents feeds arbitrary worker bytes to the gateway's event
// stream reader: it must not panic, and it may only report success for a
// done event that decodes and names a terminal state.
func FuzzReadEvents(f *testing.F) {
	f.Add([]byte("id: 1\nevent: progress\ndata: {\"Iter\":1,\"HPWL\":10}\n\n" +
		"event: done\ndata: {\"id\":3,\"state\":\"succeeded\",\"hpwl\":10}\n\n"))
	f.Add([]byte("event: draining\ndata: {}\n\n"))
	f.Add([]byte("event: done\ndata: {\"state\":\"running\"}\n\n"))
	f.Add([]byte("event: done\ndata: {\"state\":\n\n"))
	f.Add([]byte("event: progress\ndata: [1,2]\n\nevent: done\ndata: null\n\n"))
	f.Add([]byte("event: done\ndata: {\"state\":\"failed\",\"started\":\"not a time\"}\n\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := ReadEvents(bytes.NewReader(b), func(placer.Snapshot) {})
		if err != nil {
			if st != nil {
				t.Fatalf("error %v with a status %+v", err, st)
			}
			return
		}
		if st == nil {
			t.Fatal("success without a status")
		}
		if s, perr := serve.ParseState(st.State); perr != nil || !s.Terminal() {
			t.Fatalf("accepted done event with state %q", st.State)
		}
	})
}
