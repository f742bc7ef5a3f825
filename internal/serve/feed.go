package serve

import (
	"sync"

	"xplace/internal/placer"
)

// Feed is a job's progress feed: a bounded ring of the most recent
// snapshots plus a non-blocking fan-out to live followers. A follower
// whose buffer is full misses that snapshot rather than stalling the
// publisher (the GP loop, or the gateway's relay of a worker stream).
// All methods are safe for concurrent use.
type Feed struct {
	mu     sync.Mutex
	ring   []placer.Snapshot
	start  int // index of the oldest retained snapshot
	n      int // retained snapshots
	subs   map[chan placer.Snapshot]struct{}
	closed bool
}

// NewFeed returns an open feed retaining the last capacity snapshots.
func NewFeed(capacity int) *Feed {
	return &Feed{
		ring: make([]placer.Snapshot, capacity),
		subs: make(map[chan placer.Snapshot]struct{}),
	}
}

// Publish appends s to the ring and offers it to every follower. It is a
// no-op once the feed is closed.
func (f *Feed) Publish(s placer.Snapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if len(f.ring) > 0 {
		if f.n < len(f.ring) {
			f.ring[(f.start+f.n)%len(f.ring)] = s
			f.n++
		} else {
			f.ring[f.start] = s
			f.start = (f.start + 1) % len(f.ring)
		}
	}
	for ch := range f.subs {
		select {
		case ch <- s:
		default: // slow follower: drop rather than stall the publisher
		}
	}
}

// Close ends the feed: every follower's channel is closed and later
// Follow calls return an already-closed channel. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for ch := range f.subs {
		delete(f.subs, ch)
		close(ch)
	}
}

// Follow returns the retained history, oldest first, and a live channel
// (buffer buf), both taken under one lock: every snapshot published after
// the history was copied is offered on the channel, none twice. The
// channel closes when the feed closes or cancel is called.
func (f *Feed) Follow(buf int) (history []placer.Snapshot, live <-chan placer.Snapshot, cancel func()) {
	ch := make(chan placer.Snapshot, max(buf, 1))
	f.mu.Lock()
	defer f.mu.Unlock()
	history = make([]placer.Snapshot, f.n)
	for i := range history {
		history[i] = f.ring[(f.start+i)%len(f.ring)]
	}
	if f.closed {
		close(ch)
		return history, ch, func() {}
	}
	f.subs[ch] = struct{}{}
	return history, ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if _, ok := f.subs[ch]; ok {
			delete(f.subs, ch)
			close(ch)
		}
	}
}

// Last returns the newest retained snapshot (zero when there is none).
func (f *Feed) Last() placer.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		return placer.Snapshot{}
	}
	return f.ring[(f.start+f.n-1)%len(f.ring)]
}
