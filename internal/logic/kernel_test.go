package logic

import (
	"fmt"
	"math/rand"
	"testing"
)

// The word-parallel cube operations and the flat-stack tautology kernel
// are checked here against per-variable reference code: the loops and
// the Cover-valued unate recursion they replaced.

func refIsEmpty(c Cube) bool {
	for v := 0; v < c.N; v++ {
		if c.Lit(v) == LitNone {
			return true
		}
	}
	return false
}

func refCountLits(c Cube) int {
	n := 0
	for v := 0; v < c.N; v++ {
		if l := c.Lit(v); l == LitNeg || l == LitPos {
			n++
		}
	}
	return n
}

func refCofactor(a, c Cube) (Cube, bool) {
	for v := 0; v < a.N; v++ {
		if a.Lit(v)&c.Lit(v) == LitNone {
			return Cube{}, false
		}
	}
	r := a.Clone()
	for v := 0; v < a.N; v++ {
		if c.Lit(v) != LitBoth {
			r.SetLit(v, LitBoth)
		}
	}
	return r, true
}

func refCoverCofactor(f *Cover, c Cube) *Cover {
	g := NewCover(f.N)
	for _, d := range f.Cubes {
		if r, ok := refCofactor(d, c); ok {
			g.Cubes = append(g.Cubes, r)
		}
	}
	return g
}

// refMostBinate is the per-variable split rule: the variable bound in
// both phases maximising min(pos,neg)<<16 + pos + neg, lowest on ties.
func refMostBinate(f *Cover) int {
	pos := make([]int, f.N)
	neg := make([]int, f.N)
	for _, c := range f.Cubes {
		for v := 0; v < f.N; v++ {
			switch c.Lit(v) {
			case LitPos:
				pos[v]++
			case LitNeg:
				neg[v]++
			}
		}
	}
	best, bestKey := -1, -1
	for v := 0; v < f.N; v++ {
		if pos[v] > 0 && neg[v] > 0 {
			if key := (min(pos[v], neg[v]) << 16) + pos[v] + neg[v]; key > bestKey {
				best, bestKey = v, key
			}
		}
	}
	return best
}

// refIsTautology is the allocating unate recursion: split on
// refMostBinate, positive cofactor first.
func refIsTautology(f *Cover) bool {
	if len(f.Cubes) == 0 {
		return false
	}
	if f.HasFullCube() {
		return true
	}
	v := refMostBinate(f)
	if v < 0 {
		return false
	}
	for _, l := range []Lit{LitPos, LitNeg} {
		c := NewCube(f.N)
		c.SetLit(v, l)
		if !refIsTautology(refCoverCofactor(f, c)) {
			return false
		}
	}
	return true
}

func refCoversCube(f *Cover, c Cube) bool {
	if refIsEmpty(c) {
		return true
	}
	return refIsTautology(refCoverCofactor(f, c))
}

// randCubeOn returns a cube over n variables binding each variable of
// support with probability dens, to a random phase.
func randCubeOn(r *rand.Rand, n int, support []int, dens float64) Cube {
	c := NewCube(n)
	for _, v := range support {
		if r.Float64() < dens {
			c.SetLit(v, Lit(1+r.Intn(2)))
		}
	}
	return c
}

// sparseSupport draws k distinct variables of n, spread over every word.
func sparseSupport(r *rand.Rand, n, k int) []int {
	return r.Perm(n)[:min(k, n)]
}

func TestCubeWordOpsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 31, 32, 33, 64, 65} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			all := r.Perm(n)
			for i := 0; i < 400; i++ {
				a := randCubeOn(r, n, all, 0.3)
				c := randCubeOn(r, n, all, 0.1)
				if i%4 == 0 {
					a.SetLit(r.Intn(n), LitNone)
				}
				if got, want := a.IsEmpty(), refIsEmpty(a); got != want {
					t.Fatalf("IsEmpty(%v) = %v, want %v", a, got, want)
				}
				if got, want := a.CountLits(), refCountLits(a); got != want {
					t.Fatalf("CountLits(%v) = %d, want %d", a, got, want)
				}
				got, gok := a.Cofactor(c)
				want, wok := refCofactor(a, c)
				if gok != wok || (gok && !got.Equal(want)) {
					t.Fatalf("Cofactor(%v, %v) = %v %v, want %v %v", a, c, got, gok, want, wok)
				}
			}
		})
	}
}

// TestTautologyMatchesReference runs the flat kernel and the reference
// recursion on covers whose few support variables are scattered across
// every word of the cube, so tautologies occur and cofactoring crosses
// the 32-variable word boundary.
func TestTautologyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{5, 32, 33, 40, 70} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			tauts, covered := 0, 0
			for i := 0; i < 600; i++ {
				support := sparseSupport(r, n, 3+r.Intn(4))
				f := NewCover(n)
				for k := 2 + r.Intn(12); k > 0; k-- {
					c := randCubeOn(r, n, support, 0.5)
					if c.IsFull() {
						c.SetLit(support[0], LitPos)
					}
					f.Add(c)
				}
				if i%8 == 0 {
					// f + f' is a tautology however f is drawn.
					f = Or(f, f.Complement())
				}
				want := refIsTautology(f)
				if got := f.IsTautology(); got != want {
					t.Fatalf("IsTautology = %v, want %v on\n%v", got, want, f)
				}
				if want {
					tauts++
				}
				c := randCubeOn(r, n, support, 0.5)
				want = refCoversCube(f, c)
				if got := f.CoversCube(c); got != want {
					t.Fatalf("CoversCube(%v) = %v, want %v on\n%v", c, got, want, f)
				}
				if want {
					covered++
				}
			}
			if tauts < 100 || tauts > 500 || covered < 100 || covered > 500 {
				t.Fatalf("unbalanced draw: %d tautologies, %d covered cubes of 600", tauts, covered)
			}
		})
	}
}

// TestSplitRuleMatchesReference pins the word-parallel split rule, which
// the tautology kernel and Complement share, to the per-variable one,
// tie-break included: Complement's cube order depends on it.
func TestSplitRuleMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{5, 33, 70} {
		for i := 0; i < 300; i++ {
			support := sparseSupport(r, n, 2+r.Intn(6))
			f := NewCover(n)
			for k := 1 + r.Intn(8); k > 0; k-- {
				f.Add(randCubeOn(r, n, support, 0.6))
			}
			if got, want := f.mostBinate(), refMostBinate(f); got != want {
				t.Fatalf("n=%d: split on %d, reference on %d:\n%v", n, got, want, f)
			}
		}
	}
}

func TestTautologyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	r := rand.New(rand.NewSource(29))
	f := NewCover(40)
	support := sparseSupport(r, 40, 6)
	for k := 0; k < 10; k++ {
		f.Add(randCubeOn(r, 40, support, 0.5))
	}
	f = Or(f, f.Complement())
	c := randCubeOn(r, 40, support, 0.3)
	f.IsTautology() // warm the stack pool
	if a := testing.AllocsPerRun(50, func() {
		f.IsTautology()
		f.CoversCube(c)
	}); a != 0 {
		t.Fatalf("IsTautology + CoversCube allocated %.1f times per run", a)
	}
}
