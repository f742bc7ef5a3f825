// Package jobhttp is the job API over HTTP, shared by the xserve worker
// and the xgate gateway: the event-stream codec (WriteEvents, ReadEvents),
// the job handlers both tiers serve identically (Handle), and the JSON
// response helpers. The wire types live in package jobapi, which stays
// free of net/http for in-process callers.
package jobhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"xplace/internal/jobapi"
	"xplace/internal/obs"
	"xplace/internal/serve"
)

// Job is what the shared handlers need of one tier's job handle.
type Job interface {
	ID() int64
	Feed() *serve.Feed
}

// Tier is one serving tier's job table and metrics: a worker's scheduler
// or the gateway.
type Tier[J Job] interface {
	Job(id int64) (J, bool)
	Jobs() []J // newest first
	Cancel(id int64) bool
	Registry() *obs.Registry
}

// Handle registers the part of the job API that an xserve worker and the
// xgate gateway serve identically:
//
//	GET  /jobs              every job's status, newest first
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/events  progress stream (WriteEvents)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /healthz           liveness
//	GET  /metrics           the tier's registry, Prometheus text format
//
// status renders a job's wire form; closing stop ends every open event
// stream with a draining event. Submission and readiness differ per tier
// and stay with the caller.
func Handle[J Job](mux *http.ServeMux, tier Tier[J], status func(J) jobapi.Status, stop <-chan struct{}) {
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		all := tier.Jobs()
		out := make([]jobapi.Status, len(all))
		for i, j := range all {
			out[i] = status(j)
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := LookupJob(w, r, tier.Job); ok {
			WriteJSON(w, http.StatusOK, status(j))
		}
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := LookupJob(w, r, tier.Job); ok {
			WriteEvents(w, r, j.Feed(), func() jobapi.Status { return status(j) }, stop)
		}
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := LookupJob(w, r, tier.Job); ok {
			tier.Cancel(j.ID())
			WriteJSON(w, http.StatusOK, status(j))
		}
	})
	// Liveness only: a draining or closing process is still alive and must
	// not be restarted by a supervisor.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// A scrape touches only the registry mutex and instrument atomics,
	// never a job lock.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = tier.Registry().WritePrometheus(w)
	})
}

// WriteJSON writes v as an indented JSON response with the given code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes {"error": err} with the given code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// LookupJob resolves the request's {id} path value with find, answering
// 400 for a malformed id and 404 for an unknown one itself; ok is false
// when it did.
func LookupJob[J any](w http.ResponseWriter, r *http.Request, find func(int64) (J, bool)) (j J, ok bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, errors.New("bad job id"))
		return j, false
	}
	if j, ok = find(id); !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
	}
	return j, ok
}
