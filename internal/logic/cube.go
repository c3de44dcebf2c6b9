// Package logic implements two-level (sum-of-products) Boolean algebra in
// positional-cube notation, together with an espresso-style heuristic
// minimizer that accepts don't-care sets.
//
// The package is the workhorse behind node functions in internal/network and
// behind the retiming-induced don't-care simplification of internal/core.
// Every function is pure Boolean algebra over a fixed variable count; callers
// keep track of what the variables mean.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Lit is the value of one variable inside a cube, encoded positionally:
// bit 0 set means the variable may be 0, bit 1 set means it may be 1.
type Lit byte

const (
	// LitNone is the empty (contradictory) literal; a cube containing it
	// represents the empty set of minterms.
	LitNone Lit = 0
	// LitNeg is the negative literal x'.
	LitNeg Lit = 1
	// LitPos is the positive literal x.
	LitPos Lit = 2
	// LitBoth means the variable is absent from the cube (don't care).
	LitBoth Lit = 3
)

const varsPerWord = 32

// Cube is a product term over N Boolean variables in positional notation.
// Unused high bits of the last word are kept at "11" so that bitwise
// operations remain uniform.
type Cube struct {
	N int
	w []uint64
}

// NewCube returns the universal cube (all variables don't-care) over n vars.
func NewCube(n int) Cube {
	if n < 0 {
		panic("logic: negative variable count")
	}
	nw := (n + varsPerWord - 1) / varsPerWord
	if nw == 0 {
		nw = 1
	}
	w := make([]uint64, nw)
	for i := range w {
		w[i] = ^uint64(0)
	}
	return Cube{N: n, w: w}
}

// Clone returns a deep copy of c.
func (c Cube) Clone() Cube {
	w := make([]uint64, len(c.w))
	copy(w, c.w)
	return Cube{N: c.N, w: w}
}

// Lit returns the literal of variable v in c.
func (c Cube) Lit(v int) Lit {
	word, off := v/varsPerWord, uint(v%varsPerWord)*2
	return Lit((c.w[word] >> off) & 3)
}

// SetLit sets the literal of variable v in place.
func (c Cube) SetLit(v int, l Lit) {
	word, off := v/varsPerWord, uint(v%varsPerWord)*2
	c.w[word] = (c.w[word] &^ (3 << off)) | (uint64(l) << off)
}

// IsEmpty reports whether the cube denotes the empty set (some variable has
// the contradictory literal 00). The unused high bits are "11", so a zero
// pair can only be a variable's.
func (c Cube) IsEmpty() bool {
	for _, x := range c.w {
		if ^(x|x>>1)&oddBits != 0 {
			return true
		}
	}
	return false
}

// IsFull reports whether the cube is the universal cube.
func (c Cube) IsFull() bool {
	for _, w := range c.w {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// And returns the intersection of a and b and whether it is non-empty.
func (a Cube) And(b Cube) (Cube, bool) {
	if a.N != b.N {
		panic("logic: cube size mismatch")
	}
	r := Cube{N: a.N, w: make([]uint64, len(a.w))}
	for i := range a.w {
		r.w[i] = a.w[i] & b.w[i]
	}
	return r, !r.IsEmpty()
}

// ContainsCube reports whether a ⊇ b as sets of minterms (b's bits are a
// subset of a's bits and b is non-empty).
func (a Cube) ContainsCube(b Cube) bool {
	for i := range a.w {
		if b.w[i]&^a.w[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports structural equality.
func (a Cube) Equal(b Cube) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return false
		}
	}
	return true
}

// Distance returns the number of variables in which a and b have disjoint
// literals. Distance 0 means the cubes intersect; distance 1 means consensus
// exists.
func (a Cube) Distance(b Cube) int {
	d := 0
	for i := range a.w {
		x := a.w[i] & b.w[i]
		d += bits.OnesCount64(^(x | x>>1) & oddBits)
	}
	return d
}

// CountLits returns the number of variables bound to a single phase: the
// two-bit fields reading 01 or 10. The unused high bits ("11") count none.
func (c Cube) CountLits() int {
	n := 0
	for _, x := range c.w {
		n += bits.OnesCount64((x ^ x>>1) & oddBits)
	}
	return n
}

// Supercube returns the smallest cube containing both a and b (bitwise OR).
func (a Cube) Supercube(b Cube) Cube {
	r := Cube{N: a.N, w: make([]uint64, len(a.w))}
	for i := range a.w {
		r.w[i] = a.w[i] | b.w[i]
	}
	return r
}

// Cofactor returns the cofactor of cube a with respect to cube c, and whether
// it is non-empty. Variables bound in c become don't-care in the result;
// if a and c conflict the cofactor is empty.
//
// Once the cubes intersect, a shares the one bit of every field c binds
// and ^c holds the other, so a | ^c raises exactly those fields to "11";
// where c is "11", ^c is 0 and a is kept.
func (a Cube) Cofactor(c Cube) (Cube, bool) {
	if a.Distance(c) > 0 {
		return Cube{}, false
	}
	r := Cube{N: a.N, w: make([]uint64, len(a.w))}
	for i := range a.w {
		r.w[i] = a.w[i] | ^c.w[i]
	}
	return r, true
}

// Eval evaluates the cube as a product term under a complete assignment.
func (c Cube) Eval(assign []bool) bool {
	for v := 0; v < c.N; v++ {
		switch c.Lit(v) {
		case LitNeg:
			if assign[v] {
				return false
			}
		case LitPos:
			if !assign[v] {
				return false
			}
		case LitNone:
			return false
		}
	}
	return true
}

// String renders the cube in the classic espresso input form, e.g. "1-0".
func (c Cube) String() string {
	var b strings.Builder
	for v := 0; v < c.N; v++ {
		switch c.Lit(v) {
		case LitNeg:
			b.WriteByte('0')
		case LitPos:
			b.WriteByte('1')
		case LitBoth:
			b.WriteByte('-')
		case LitNone:
			b.WriteByte('!')
		}
	}
	return b.String()
}

// ParseCube parses a string of '0', '1', '-' characters into a cube.
func ParseCube(s string) (Cube, error) {
	c := NewCube(len(s))
	for i, ch := range s {
		switch ch {
		case '0':
			c.SetLit(i, LitNeg)
		case '1':
			c.SetLit(i, LitPos)
		case '-', '2':
			// don't care, already set
		default:
			return Cube{}, fmt.Errorf("logic: invalid cube character %q in %q", ch, s)
		}
	}
	return c, nil
}
