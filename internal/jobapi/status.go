package jobapi

import (
	"time"

	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Status is the wire form of a job: the body of GET /jobs/{id} and of the
// submit and cancel replies, each element of GET /jobs, and the data of
// the event stream's done event — on an xserve worker and on the xgate
// gateway alike. A worker leaves the routing fields (node, remote_id,
// draft, failovers) empty; the gateway fills them in.
type Status struct {
	ID         int64            `json:"id"`
	Label      string           `json:"label"`
	State      string           `json:"state"`
	Err        string           `json:"error,omitempty"`
	Submitted  time.Time        `json:"submitted"`
	Started    *time.Time       `json:"started,omitempty"`
	Finished   *time.Time       `json:"finished,omitempty"`
	Progress   *placer.Snapshot `json:"progress,omitempty"`
	Iterations int              `json:"iterations,omitempty"`
	HPWL       float64          `json:"hpwl,omitempty"`
	Overflow   float64          `json:"overflow,omitempty"`
	Cached     bool             `json:"cached,omitempty"`    // served from the result cache
	Recovered  bool             `json:"recovered,omitempty"` // replayed from a WAL after a restart
	Resumed    bool             `json:"resumed,omitempty"`   // continued from a placer checkpoint
	Fallback   string           `json:"fallback,omitempty"`  // strategy that rescued a diverged run

	Node      string `json:"node,omitempty"`      // worker running the job
	RemoteID  int64  `json:"remote_id,omitempty"` // job id on that worker (or the draft tier)
	Draft     bool   `json:"draft,omitempty"`     // answered by the gateway's lbub draft tier
	Failovers int    `json:"failovers,omitempty"` // reruns after a worker died
}

// NewStatus builds the wire form of a job's status. Zero times and an
// empty progress snapshot are omitted.
func NewStatus(st serve.Status) Status {
	ws := Status{
		ID:         st.ID,
		Label:      st.Label,
		State:      st.State.String(),
		Err:        st.Err,
		Submitted:  st.Submitted,
		Iterations: st.Iterations,
		HPWL:       st.HPWL,
		Overflow:   st.Overflow,
		Cached:     st.Cached,
		Recovered:  st.Recovered,
		Resumed:    st.Resumed,
		Fallback:   st.Fallback,
	}
	if !st.Started.IsZero() {
		ws.Started = &st.Started
	}
	if !st.Finished.IsZero() {
		ws.Finished = &st.Finished
	}
	if st.Progress.Iter > 0 || st.Progress.HPWL > 0 {
		ws.Progress = &st.Progress
	}
	return ws
}
