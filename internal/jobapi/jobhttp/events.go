package jobhttp

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// The event stream (GET /jobs/{id}/events) is Server-Sent Events with
// three event types:
//
//	id: <iter>
//	event: progress
//	data: <placer.Snapshot JSON>
//
//	event: done
//	data: <jobapi.Status JSON of the terminal job>
//
//	event: draining
//	data: {}
//
// Progress events are strictly increasing in iteration; the id lets a
// reconnecting client resume with Last-Event-ID. A stream ends with done
// (the job is terminal) or draining (the server is shutting down; the
// job lives on and the client may reconnect).

// ErrDraining is returned by ReadEvents when the server ended the stream
// with a draining event.
var ErrDraining = errors.New("jobhttp: server draining")

// WriteEvents serves a job's event stream from its progress feed: the
// retained history, then live snapshots, then a done event carrying
// status() once the feed closes. Snapshots at or below the request's
// Last-Event-ID, or not above the last one sent, are skipped, so the
// stream is monotone. Closing stop ends the stream with a draining event.
func WriteEvents(w http.ResponseWriter, r *http.Request, feed *serve.Feed, status func() jobapi.Status, stop <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// The buffer absorbs a burst of iterations while the client's socket
	// drains; a client slower than that misses snapshots (the feed never
	// blocks its publisher) and the next one it gets stays monotone.
	history, live, cancel := feed.Follow(64)
	defer cancel()
	last := -1
	// An unparseable Last-Event-ID is ignored (full replay).
	if v, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && v > last {
		last = v
	}
	emit := func(sn placer.Snapshot) {
		if sn.Iter <= last {
			return
		}
		last = sn.Iter
		b, _ := json.Marshal(sn)
		fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", sn.Iter, b)
		fl.Flush()
	}
	for _, sn := range history {
		emit(sn)
	}
	for {
		select {
		case sn, open := <-live:
			if !open { // job finished
				b, _ := json.Marshal(status())
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
				fl.Flush()
				return
			}
			emit(sn)
		case <-stop:
			fmt.Fprint(w, "event: draining\ndata: {}\n\n")
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ReadEvents consumes an event stream written by WriteEvents, handing
// each progress snapshot to progress (undecodable ones are skipped). It
// returns the status of the done event, which must decode and name a
// terminal state. Any other end is an error: ErrDraining, a malformed
// done event, a read error, or EOF before done.
func ReadEvents(r io.Reader, progress func(placer.Snapshot)) (*jobapi.Status, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "progress":
				var sn placer.Snapshot
				if json.Unmarshal([]byte(data), &sn) == nil {
					progress(sn)
				}
			case "done":
				var st jobapi.Status
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return nil, fmt.Errorf("jobhttp: malformed done event: %w", err)
				}
				if s, err := serve.ParseState(st.State); err != nil || !s.Terminal() {
					return nil, fmt.Errorf("jobhttp: done event with non-terminal state %q", st.State)
				}
				return &st, nil
			case "draining":
				return nil, ErrDraining
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("jobhttp: event stream ended without done")
}
