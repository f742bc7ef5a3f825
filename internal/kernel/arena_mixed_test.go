package kernel

import "testing"

// TestArenaMixedElementSizes interleaves float64 and complex128 checkouts
// and checks the byte accounting stays exact per element width, returns to
// baseline after release, and keeps the free-list families separate (a
// complex128 request must never be served from a parked float64 buffer of
// the same class).
func TestArenaMixedElementSizes(t *testing.T) {
	var a Arena

	f := a.Alloc(1000)        // class 10:  8<<10 =  8192 B
	g := a.Alloc(300)         // class 9:   8<<9  =  4096 B
	c := a.AllocComplex(300)  // class 9:  16<<9  =  8192 B
	z := a.AllocComplex(1000) // class 10: 16<<10 = 16384 B

	const want = 8192 + 4096 + 8192 + 16384
	st := a.Stats()
	if st.InUse != want {
		t.Fatalf("InUse = %d, want %d", st.InUse, want)
	}
	if st.Peak != want {
		t.Fatalf("Peak = %d, want %d", st.Peak, want)
	}
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("misses=%d hits=%d, want 4 misses on a cold arena", st.Misses, st.Hits)
	}

	// Release in a different order than checkout; accounting must return to
	// baseline with every byte parked in the right family.
	a.Free(g)
	a.FreeComplex(c)
	a.Free(f)
	a.FreeComplex(z)
	st = a.Stats()
	if st.InUse != 0 {
		t.Fatalf("InUse after release = %d, want 0", st.InUse)
	}
	if st.Pooled != want {
		t.Fatalf("Pooled after release = %d, want %d", st.Pooled, want)
	}
	if st.Frees != 4 {
		t.Fatalf("Frees = %d, want 4", st.Frees)
	}

	// Drain class 9's complex128 list, then ask for a complex128 of the
	// same class: only a parked float64 buffer is left there, so the
	// request must be a fresh miss — families never serve each other.
	c2 := a.AllocComplex(512)
	if st = a.Stats(); st.Hits != 1 {
		t.Fatalf("complex128 re-checkout hits = %d, want 1", st.Hits)
	}
	c3 := a.AllocComplex(512)
	if st = a.Stats(); st.Hits != 1 {
		t.Fatalf("complex128 checkout hit a foreign free list (hits=%d)", st.Hits)
	}
	// Matching type and class is a hit.
	f2 := a.Alloc(1024)
	if st = a.Stats(); st.Hits != 2 {
		t.Fatalf("float64 re-checkout hits = %d, want 2", st.Hits)
	}
	a.FreeComplex(c2)
	a.FreeComplex(c3)
	a.Free(f2)
	if st = a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse after second cycle = %d, want 0", st.InUse)
	}
}

// TestArenaMixedUnpooledAccounting: above the pooled bound, buffers are
// accounted at their actual byte size per element width (8 B per float64,
// 16 per complex128), not a single width.
func TestArenaMixedUnpooledAccounting(t *testing.T) {
	var a Arena
	a.limit = 4 // pool only up to 1<<3 = 8 elements

	f := a.Alloc(100)
	z := a.AllocComplex(50)
	st := a.Stats()
	if want := int64(100*8 + 50*16); st.InUse != want {
		t.Fatalf("unpooled InUse = %d, want %d", st.InUse, want)
	}
	a.Free(f)
	a.FreeComplex(z)
	if st = a.Stats(); st.InUse != 0 || st.Pooled != 0 {
		t.Fatalf("after release InUse=%d Pooled=%d, want 0/0", st.InUse, st.Pooled)
	}
}

// TestEngineMixedAllocWrappers: the Engine-level float64/complex128
// wrappers reach the same arena and attribute checkouts to the host op.
func TestEngineMixedAllocWrappers(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	f := e.Alloc(512)
	z := e.AllocComplex(512)
	st := e.ArenaStats()
	if want := int64(8*512 + 16*512); st.InUse != want {
		t.Fatalf("InUse = %d, want %d", st.InUse, want)
	}
	e.Free(f)
	e.FreeComplex(z)
	if st = e.ArenaStats(); st.InUse != 0 {
		t.Fatalf("InUse after free = %d, want 0", st.InUse)
	}
	if got := e.Stats().PerOp[HostOp].Allocs; got != 2 {
		t.Fatalf("host-attributed allocs = %d, want 2", got)
	}
}
