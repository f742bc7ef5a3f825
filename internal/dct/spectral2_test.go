package dct

import (
	"fmt"
	"testing"
)

// TestSpectralVersionsMatchDirect: the Makhoul engine against the O(N^2)-
// per-output references, on non-square grids in both aspect orientations.
// The subtest is named after the engine's spectral2.* kernels.
func TestSpectralVersionsMatchDirect(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		for _, dims := range [][2]int{{4, 4}, {8, 32}, {32, 8}, {2, 16}, {16, 16}} {
			nx, ny := dims[0], dims[1]
			p := NewPlan(nx, ny)
			f := randGrid(nx, ny, 23)
			got := make([]float64, nx*ny)
			p.DCT2(f, got, Serial)
			if d := maxAbsDiff(got, directDCT2(f, nx, ny)); d > 1e-9 {
				t.Errorf("%dx%d DCT2 max diff %g", nx, ny, d)
			}
			p.EvalCosCos(f, got, Serial)
			if d := maxAbsDiff(got, directEval(f, nx, ny, false, false)); d > 1e-9 {
				t.Errorf("%dx%d EvalCosCos max diff %g", nx, ny, d)
			}
			p.EvalSinCos(f, got, Serial)
			if d := maxAbsDiff(got, directEval(f, nx, ny, true, false)); d > 1e-9 {
				t.Errorf("%dx%d EvalSinCos max diff %g", nx, ny, d)
			}
			p.EvalCosSin(f, got, Serial)
			if d := maxAbsDiff(got, directEval(f, nx, ny, false, true)); d > 1e-9 {
				t.Errorf("%dx%d EvalCosSin max diff %g", nx, ny, d)
			}
		}
	})
}

// TestSpectralRoundTripBothVersions: DCT2 followed by the normalized
// EvalCosCos reconstructs the input. The subtest is named after the
// engine's spectral2.* kernels.
func TestSpectralRoundTripBothVersions(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		for _, dims := range [][2]int{{8, 8}, {32, 16}, {16, 64}} {
			nx, ny := dims[0], dims[1]
			f := randGrid(nx, ny, 29)
			p := NewPlan(nx, ny)
			coef := make([]float64, nx*ny)
			p.DCT2(f, coef, Serial)
			for v := 0; v < ny; v++ {
				wv := 2 / float64(ny)
				if v == 0 {
					wv = 1 / float64(ny)
				}
				for u := 0; u < nx; u++ {
					wu := 2 / float64(nx)
					if u == 0 {
						wu = 1 / float64(nx)
					}
					coef[v*nx+u] *= wu * wv
				}
			}
			got := make([]float64, nx*ny)
			p.EvalCosCos(coef, got, Serial)
			if d := maxAbsDiff(got, f); d > 1e-9 {
				t.Errorf("%dx%d roundtrip max diff %g", nx, ny, d)
			}
		}
	})
}

// fieldReference computes the three EvalPotentialField outputs through the
// direct O(N^2) evaluators.
func fieldReference(coef, sx, sy []float64, nx, ny int) (psi, ex, ey []float64) {
	psi = directEval(coef, nx, ny, false, false)
	cx := make([]float64, nx*ny)
	cy := make([]float64, nx*ny)
	for v := 0; v < ny; v++ {
		for u := 0; u < nx; u++ {
			cx[v*nx+u] = coef[v*nx+u] * sx[u]
			cy[v*nx+u] = coef[v*nx+u] * sy[v]
		}
	}
	ex = directEval(cx, nx, ny, true, false)
	ey = directEval(cy, nx, ny, false, true)
	return
}

// TestEvalPotentialFieldMatchesDirect: the batched field evaluation against
// the direct references. The subtest is named after the engine's
// spectral2.* kernels.
func TestEvalPotentialFieldMatchesDirect(t *testing.T) {
	nx, ny := 8, 32
	coef := randGrid(nx, ny, 31)
	sx := randGrid(nx, 1, 37)
	sy := randGrid(ny, 1, 41)
	wantPsi, wantEx, wantEy := fieldReference(coef, sx, sy, nx, ny)
	t.Run("v2", func(t *testing.T) {
		p := NewPlan(nx, ny)
		psi := make([]float64, nx*ny)
		ex := make([]float64, nx*ny)
		ey := make([]float64, nx*ny)
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		if d := maxAbsDiff(psi, wantPsi); d > 1e-9 {
			t.Errorf("psi max diff %g", d)
		}
		if d := maxAbsDiff(ex, wantEx); d > 1e-9 {
			t.Errorf("ex max diff %g", d)
		}
		if d := maxAbsDiff(ey, wantEy); d > 1e-9 {
			t.Errorf("ey max diff %g", d)
		}
	})
}

// TestEvalPotentialFieldAllocFree: after the first call warms the plan
// scratch (including the second intermediate and field tiles), the batched
// evaluation performs zero heap allocations.
func TestEvalPotentialFieldAllocFree(t *testing.T) {
	nx, ny := 32, 64
	coef := randGrid(nx, ny, 43)
	sx := randGrid(nx, 1, 47)
	sy := randGrid(ny, 1, 53)
	t.Run("v2", func(t *testing.T) {
		p := NewPlan(nx, ny)
		psi := make([]float64, nx*ny)
		ex := make([]float64, nx*ny)
		ey := make([]float64, nx*ny)
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		allocs := testing.AllocsPerRun(20, func() {
			p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		})
		if allocs != 0 {
			t.Errorf("steady-state EvalPotentialField allocs = %v, want 0", allocs)
		}
	})
}

// TestFieldRowCutoffMatchesFullEval: with the high coefficient rows zeroed
// by the caller, evaluating with the row cutoff set produces exactly the
// same output as the full evaluation of the truncated spectrum (a zero row
// transforms to exact zeros, so the skip changes no bits).
func TestFieldRowCutoffMatchesFullEval(t *testing.T) {
	nx, ny := 16, 32
	ky := ny / 2
	coef := randGrid(nx, ny, 59)
	for v := ky; v < ny; v++ {
		for u := 0; u < nx; u++ {
			coef[v*nx+u] = 0
		}
	}
	sx := randGrid(nx, 1, 61)
	sy := randGrid(ny, 1, 67)

	t.Run("float64", func(t *testing.T) {
		full := NewPlan(nx, ny)
		cut := NewPlan(nx, ny)
		cut.SetFieldRowCutoff(ky)
		out := func(p *Plan) (psi, ex, ey []float64) {
			psi = make([]float64, nx*ny)
			ex = make([]float64, nx*ny)
			ey = make([]float64, nx*ny)
			p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
			return
		}
		wp, wx, wy := out(full)
		gp, gx, gy := out(cut)
		for i := range wp {
			if gp[i] != wp[i] || gx[i] != wx[i] || gy[i] != wy[i] {
				t.Fatalf("cutoff eval diverged at %d: psi %g vs %g, ex %g vs %g, ey %g vs %g",
					i, gp[i], wp[i], gx[i], wx[i], gy[i], wy[i])
			}
		}
	})
}

// BenchmarkDCT2DRoundTrip: the acceptance benchmark — forward DCT2 plus
// EvalCosCos. Sub-benchmarks cover the grid sweep;
// 512 is the headline size.
func BenchmarkDCT2DRoundTrip(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			benchRoundTrip(b, NewPlan(n, n), n)
		})
	}
}

func benchRoundTrip(b *testing.B, p *Plan, n int) {
	f := randGrid(n, n, 3)
	coef := make([]float64, n*n)
	out := make([]float64, n*n)
	p.DCT2(f, coef, Serial) // warm the scratch
	p.EvalCosCos(coef, out, Serial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(f, coef, Serial)
		p.EvalCosCos(coef, out, Serial)
	}
}
