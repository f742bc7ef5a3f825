package serve

import (
	"sync"
	"testing"

	"xplace/internal/placer"
)

// TestFeedFollowConcurrent: followers joining at arbitrary points of a
// live publish each see one gapless, duplicate-free stream — retained
// history plus live snapshots — ending at the last publish.
func TestFeedFollowConcurrent(t *testing.T) {
	const n, followers = 2000, 8
	f := NewFeed(n)
	var wg sync.WaitGroup
	errs := make(chan string, followers)
	for k := 0; k < followers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, live, cancel := f.Follow(n) // buffer holds the whole run: no drops
			defer cancel()
			for sn := range live {
				got = append(got, sn)
			}
			for i := 1; i < len(got); i++ {
				if got[i].Iter != got[i-1].Iter+1 {
					errs <- "stream not contiguous"
					return
				}
			}
			if len(got) == 0 || got[len(got)-1].Iter != n {
				errs <- "stream did not reach the last publish"
			}
		}()
	}
	for i := 1; i <= n; i++ {
		f.Publish(placer.Snapshot{Iter: i})
	}
	f.Close()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if last := f.Last(); last.Iter != n {
		t.Errorf("Last = %d, want %d", last.Iter, n)
	}
	f.Publish(placer.Snapshot{Iter: n + 1}) // after Close: dropped
	if h := history(f); len(h) != n || h[n-1].Iter != n {
		t.Errorf("history after close: %d snapshots ending at %d", len(h), h[len(h)-1].Iter)
	}
}

// history returns the feed's retained snapshots, oldest first.
func history(f *Feed) []placer.Snapshot {
	h, _, cancel := f.Follow(1)
	cancel()
	return h
}
