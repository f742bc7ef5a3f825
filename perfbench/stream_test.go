package main

import (
	"sync"
	"testing"
)

func draw(seed int64, n int) []string {
	s := newRequestStream(seed)
	keys := make([]string, n)
	for i := range keys {
		j, r := s.next()
		if j != i {
			panic("stream index out of order")
		}
		keys[i] = r.CacheKey()
	}
	return keys
}

func TestStreamIsSeeded(t *testing.T) {
	a, b := draw(7, 300), draw(7, 300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs for one seed: %s vs %s", i, a[i], b[i])
		}
	}
	c := draw(8, 300)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestStreamRepeatShare(t *testing.T) {
	const n = 300
	seen := make(map[string]bool)
	repeats := 0
	for i, k := range draw(3, n) {
		if seen[k] {
			repeats++
			if i%freshEvery == 0 {
				t.Errorf("request %d should name a new key, repeats %s", i, k)
			}
		} else if i%freshEvery != 0 {
			t.Errorf("request %d should repeat an earlier key, names new %s", i, k)
		}
		seen[k] = true
	}
	if want := n * (freshEvery - 1) / freshEvery; repeats != want {
		t.Errorf("repeat share %d/%d, want %d/%d (2/3)", repeats, n, want, n)
	}
}

func TestStreamCyclesDesigns(t *testing.T) {
	s := newRequestStream(1)
	for i := 0; i < freshEvery*len(serveBenches); i++ {
		s.next()
	}
	first := s.newKeys()
	if len(first) != len(serveBenches) {
		t.Fatalf("%d new keys drawn, want %d", len(first), len(serveBenches))
	}
	for i, r := range first {
		if r.Bench != serveBenches[i].name || r.Scale != serveBenches[i].scale {
			t.Errorf("new request %d is %s at %v, want %+v", i, r.Bench, r.Scale, serveBenches[i])
		}
		if err := r.Validate(); err != nil {
			t.Errorf("request %d invalid: %v", i, err)
		}
	}
}

// TestStreamConcurrentDraws checks that clients drawing at once get the
// sequence one client would get, each index exactly once.
func TestStreamConcurrentDraws(t *testing.T) {
	want := draw(5, 200)
	s := newRequestStream(5)
	got := make([]string, len(want))
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < len(want)/4; k++ {
				i, r := s.next()
				got[i] = r.CacheKey()
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d is %q under concurrent draws, want %q", i, got[i], want[i])
		}
	}
}
