package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/jobapi/jobhttp"
)

// NewMux wires the gateway's HTTP surface — the same job API a single
// xserve worker presents, so clients (and tooling) cannot tell one
// worker from a fleet:
//
//	POST /jobs              submit (JSON body, jobapi.Request)
//	GET  /jobs              list gateway jobs
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/events  progress stream (SSE, Last-Event-ID resume)
//	POST /jobs/{id}/cancel  cancel wherever the job runs
//	GET  /nodes             fleet routing state
//	GET  /metrics           xgate_* series (Prometheus text)
//	GET  /healthz           gateway liveness
//	GET  /readyz            gateway readiness (503 once closing)
//
// Because a job's feed is already deduplicated across failovers, a client
// streaming through a node death sees one monotone sequence of iterations
// with a single stall at the failover point.
func NewMux(g *Gateway) *http.ServeMux {
	mux := http.NewServeMux()
	jobhttp.Handle(mux, g, (*Job).Status, g.ctx.Done())
	mux.HandleFunc("POST /jobs", handleSubmit(g))
	mux.HandleFunc("GET /nodes", handleNodes(g))
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-g.ctx.Done(): // Close has begun
			jobhttp.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closing"})
		default:
			jobhttp.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		}
	})
	return mux
}

func handleSubmit(g *Gateway) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req jobapi.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			jobhttp.WriteError(w, http.StatusBadRequest, err)
			return
		}
		j, err := g.Submit(req)
		var re *RequestError
		switch {
		case errors.As(err, &re):
			jobhttp.WriteError(w, http.StatusBadRequest, re)
			return
		case errors.Is(err, ErrOverloaded):
			// Graceful shed: the client is told exactly when to come back.
			w.Header().Set("Retry-After",
				strconv.Itoa(int(g.opts.RetryAfter/time.Second)+1))
			jobhttp.WriteError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrClosed):
			jobhttp.WriteError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			jobhttp.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		jobhttp.WriteJSON(w, http.StatusAccepted, j.Status())
	}
}

func handleNodes(g *Gateway) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		jobhttp.WriteJSON(w, http.StatusOK, g.Nodes())
	}
}
