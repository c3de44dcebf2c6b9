package logic

import (
	"math/bits"
	"sync"
)

// This file holds the tautology kernel behind IsTautology and CoversCube,
// the innermost operation of Simplify: expand asks it once per raised
// literal, irredundant once per cube. It runs the unate recursive paradigm
// on a flat word stack instead of on Cover values, so a check allocates
// nothing. Each cube occupies nw consecutive words (the Cube.w layout,
// unused high bits at "11"); a cofactor is appended above its parent's
// cubes and truncated away on return.

// oddBits selects bit 0 of every two-bit variable field.
const oddBits = 0x5555555555555555

// cubeStack is the scratch stack of one tautology check.
type cubeStack struct {
	nw  int
	buf []uint64
}

var stackPool = sync.Pool{New: func() any { return new(cubeStack) }}

func getStack(nw int) *cubeStack {
	s := stackPool.Get().(*cubeStack)
	s.nw = nw
	s.buf = s.buf[:0]
	return s
}

func putStack(s *cubeStack) { stackPool.Put(s) }

// IsTautology reports whether the cover is the constant-1 function, using
// the unate recursive paradigm.
func (f *Cover) IsTautology() bool {
	if len(f.Cubes) == 0 {
		return false
	}
	s := getStack(len(f.Cubes[0].w))
	for _, c := range f.Cubes {
		if !c.IsEmpty() {
			s.buf = append(s.buf, c.w...)
		}
	}
	r := s.taut(0)
	putStack(s)
	return r
}

// CoversCube reports whether f ⊇ c, i.e. the cofactor f|c is a tautology.
func (f *Cover) CoversCube(c Cube) bool {
	if c.IsEmpty() {
		return true
	}
	s := getStack(len(c.w))
next:
	for _, a := range f.Cubes {
		for i, x := range a.w {
			if x &= c.w[i]; ^(x|x>>1)&oddBits != 0 {
				continue next // a and c are disjoint
			}
		}
		for i, x := range a.w {
			s.buf = append(s.buf, x|^c.w[i])
		}
	}
	r := s.taut(0)
	putStack(s)
	return r
}

// taut reports whether the cubes stacked from word lo to the top cover
// every minterm. A full cube answers yes; a cover unate in every variable
// without one answers no; otherwise both cofactors of the most binate
// variable must be tautologies, the positive one tried first.
func (s *cubeStack) taut(lo int) bool {
	hi, nw := len(s.buf), s.nw
	if lo == hi {
		return false
	}
next:
	for i := lo; i < hi; i += nw {
		for _, x := range s.buf[i : i+nw] {
			if x != ^uint64(0) {
				continue next
			}
		}
		return true
	}
	v := s.mostBinate(lo, hi)
	if v < 0 {
		return false
	}
	word, off := v/varsPerWord, uint(v%varsPerWord)*2
	for _, phase := range [2]uint64{uint64(LitPos), uint64(LitNeg)} {
		for i := lo; i < hi; i += nw {
			if (s.buf[i+word]>>off)&phase != 0 {
				s.buf = append(s.buf, s.buf[i:i+nw]...)
				s.buf[len(s.buf)-nw+word] |= 3 << off
			}
		}
		ok := s.taut(hi)
		s.buf = s.buf[:hi]
		if !ok {
			return false
		}
	}
	return true
}

// mostBinate picks the split variable of the stacked cubes lo..hi: among
// the variables bound in both phases, the one maximising
// min(pos,neg)<<16 + pos + neg, the lowest such variable on ties; -1 if
// the cubes are unate in every variable.
func (s *cubeStack) mostBinate(lo, hi int) int {
	nw := s.nw
	best, bestKey := -1, -1
	for w := 0; w < nw; w++ {
		var neg, pos uint64
		for i := lo + w; i < hi; i += nw {
			x := s.buf[i]
			neg |= x &^ (x >> 1) & oddBits
			pos |= (x >> 1) &^ x & oddBits
		}
		for both := neg & pos; both != 0; both &= both - 1 {
			off := bits.TrailingZeros64(both)
			p, n := 0, 0
			for i := lo + w; i < hi; i += nw {
				switch Lit(s.buf[i]>>off) & 3 {
				case LitPos:
					p++
				case LitNeg:
					n++
				}
			}
			if key := (min(p, n) << 16) + p + n; key > bestKey {
				best, bestKey = w*varsPerWord+off/2, key
			}
		}
	}
	return best
}
