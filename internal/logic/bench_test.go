package logic

import (
	"math/rand"
	"testing"
)

// benchRandCover builds a deterministic random SOP over n variables with the
// given cube count; density controls how many literals each cube binds.
func benchRandCover(r *rand.Rand, n, cubes int, density float64) *Cover {
	f := NewCover(n)
	for i := 0; i < cubes; i++ {
		c := NewCube(n)
		for v := 0; v < n; v++ {
			if r.Float64() < density {
				if r.Intn(2) == 0 {
					c.SetLit(v, LitPos)
				} else {
					c.SetLit(v, LitNeg)
				}
			}
		}
		f.Add(c)
	}
	return f
}

// benchUnateCover is benchRandCover with a fixed phase per variable, so
// the cover is unate by construction (the Simplify early-exit case).
func benchUnateCover(r *rand.Rand, n, cubes int, density float64) *Cover {
	phase := make([]Lit, n)
	for v := range phase {
		if r.Intn(2) == 0 {
			phase[v] = LitPos
		} else {
			phase[v] = LitNeg
		}
	}
	f := NewCover(n)
	for i := 0; i < cubes; i++ {
		c := NewCube(n)
		for v := 0; v < n; v++ {
			if r.Float64() < density {
				c.SetLit(v, phase[v])
			}
		}
		f.Add(c)
	}
	return f
}

// BenchmarkSimplify measures the espresso-style minimizer with a DCret-like
// don't-care set — the inner loop of both the resynthesis core and the
// unreachable-state DC application of the baseline flow.
func BenchmarkSimplify(b *testing.B) {
	for _, sz := range []struct {
		name           string
		n, on, dc      int
		donDens, dcDen float64
	}{
		{"n6", 6, 8, 4, 0.6, 0.5},
		{"n8", 8, 12, 6, 0.5, 0.4},
		{"n10", 10, 16, 8, 0.4, 0.35},
		// Either side of the 32-variable word boundary of a cube.
		{"n33", 33, 10, 5, 0.1, 0.08},
		{"n40", 40, 12, 6, 0.1, 0.08},
	} {
		b.Run(sz.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(41))
			f := benchRandCover(r, sz.n, sz.on, sz.donDens)
			dc := benchRandCover(r, sz.n, sz.dc, sz.dcDen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Simplify(f, dc)
			}
		})
	}
}

// BenchmarkSimplifyUnate measures the early-exit path: an SCC-reduced
// unate (or single-cube) cover with an empty don't-care set skips the
// expand/irredundant loop entirely. The /full sub-runs pin the cost of
// the loop the shortcut avoids.
func BenchmarkSimplifyUnate(b *testing.B) {
	for _, sz := range []struct {
		name     string
		n, cubes int
		density  float64
	}{
		{"single_cube", 10, 1, 0.8},
		{"unate_n8", 8, 12, 0.5},
		{"unate_n12", 12, 20, 0.4},
	} {
		r := rand.New(rand.NewSource(43))
		f := benchUnateCover(r, sz.n, sz.cubes, sz.density)
		b.Run(sz.name+"/shortcut", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simplify(f, nil, true)
			}
		})
		b.Run(sz.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simplify(f, nil, false)
			}
		})
	}
}
