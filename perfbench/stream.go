package main

import (
	"math/rand"
	"sync"

	"xplace/internal/jobapi"
)

// serveBenches are the small ISPD 2015 designs serve-mix requests, each
// at a scale that gives it about 700 cells (des_perf_1 is 3.2 times the
// size of the fft designs), so every placement costs about the same and
// the run-time distribution has one mode. A new key cycles through them,
// so every run places the same mix.
var serveBenches = []struct {
	name  string
	scale float64
}{
	{"fft_1", 0.02}, {"fft_2", 0.02}, {"fft_a", 0.02}, {"fft_b", 0.02}, {"des_perf_1", 0.0062},
}

// freshEvery: request i names a new cache key when i%freshEvery == 0 and
// otherwise repeats a key drawn uniformly from those named so far, so
// the repeat share is 1 - 1/freshEvery = 2/3.
const freshEvery = 3

// requestStream is the seeded request sequence serve-mix clients draw
// from: the same seed gives the same sequence, whichever client takes
// which request.
type requestStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	fresh []jobapi.Request
	keys  map[string]bool
	n     int
}

func newRequestStream(seed int64) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed)), keys: make(map[string]bool)}
}

// next returns the index and request of the next request in the stream.
func (s *requestStream) next() (int, jobapi.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	if i%freshEvery != 0 {
		return i, s.fresh[s.rng.Intn(len(s.fresh))]
	}
	b := serveBenches[len(s.fresh)%len(serveBenches)]
	for {
		r := jobapi.Request{Bench: b.name, Scale: b.scale, Seed: 1 + s.rng.Int63n(1<<30)}
		r.Normalize() // the canonical form, whose CacheKey is the job's
		if k := r.CacheKey(); !s.keys[k] {
			s.keys[k] = true
			s.fresh = append(s.fresh, r)
			return i, r
		}
	}
}

// newKeys returns the requests that named a new key so far, in order.
func (s *requestStream) newKeys() []jobapi.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]jobapi.Request(nil), s.fresh...)
}
