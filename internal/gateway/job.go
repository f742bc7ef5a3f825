package gateway

import (
	"sync"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Job is one placement request as the gateway tracks it. The client
// sees exactly one job ID for the request's whole life — across worker
// retries, failovers to other nodes, and gateway restarts — while the
// node/remoteID pair underneath may change.
type Job struct {
	id   int64
	req  jobapi.Request
	body []byte // canonical (normalized) request JSON — the failover resubmission payload
	key  string // cache/routing key
	feed *serve.Feed

	mu        sync.Mutex
	st        serve.Status // everything but Progress, which the feed holds
	node      string       // worker currently running the job ("" for draft/unrouted)
	remoteID  int64        // job id on that worker (or the draft scheduler)
	draft     bool
	failovers int
	maxIter   int // highest iteration published; non-increasing snapshots drop

	done chan struct{}
}

// ID returns the gateway-scoped job id.
func (j *Job) ID() int64 { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's wire status, routing fields included.
func (j *Job) Status() jobapi.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	st.Progress = j.feed.Last()
	ws := jobapi.NewStatus(st)
	ws.Node, ws.RemoteID, ws.Draft, ws.Failovers = j.node, j.remoteID, j.draft, j.failovers
	return ws
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.State.Terminal()
}

// observe publishes one progress snapshot. Snapshots at or below the
// high-water iteration are dropped: after a failover the replacement run
// replays iterations the client already saw (reruns are deterministic,
// so the dropped ones are bit-identical), and the client stream stays
// monotone and duplicate-free across node deaths.
func (j *Job) observe(sn placer.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State.Terminal() || sn.Iter <= j.maxIter {
		return
	}
	j.maxIter = sn.Iter
	if j.st.State == serve.Queued {
		j.st.State = serve.Running
		if j.st.Started.IsZero() {
			j.st.Started = time.Now()
		}
	}
	j.feed.Publish(sn)
}

// highWater returns the last iteration published — the Last-Event-ID the
// gateway presents when it (re)connects to a worker's event stream.
func (j *Job) highWater() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxIter
}

// Feed returns the job's progress feed (the gateway's event stream).
func (j *Job) Feed() *serve.Feed { return j.feed }

// assign points the job at a worker (initial route or failover target).
func (j *Job) assign(node string, remoteID int64, cached bool) {
	j.mu.Lock()
	j.node = node
	j.remoteID = remoteID
	if cached {
		j.st.Cached = true
	}
	j.mu.Unlock()
}

// current returns the worker the job lives on right now.
func (j *Job) current() (node string, remoteID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node, j.remoteID
}

// markFailedOver records that the job's current node died and returns
// it, so the immediate re-route can exclude it; the failover count
// becomes visible in Status. Only that one re-route skips the dead node,
// so a node that comes back later is routable again — a job can never
// exclude itself out of the fleet.
func (j *Job) markFailedOver() (deadNode string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	deadNode = j.node
	j.failovers++
	j.node, j.remoteID = "", 0
	return deadNode
}

// finishLocked moves the job to a terminal state and closes the feed.
// Returns false if another path already finished it. Caller holds j.mu.
func (j *Job) finishLocked(state serve.State, errMsg string) bool {
	if j.st.State.Terminal() {
		return false
	}
	j.st.State = state
	j.st.Err = errMsg
	j.st.Finished = time.Now()
	if j.st.Started.IsZero() && state == serve.Succeeded {
		j.st.Started = j.st.Submitted
	}
	j.feed.Close()
	return true
}
