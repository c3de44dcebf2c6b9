// Package cut is the 4-input cut and truth-table kernel shared by the
// genlib mapper, the AIG rewriter, the NPN rewriting library and the genlib
// matcher. Each caller keeps its own cut policy; this package owns only the
// format and its operations.
//
// The format is a 16-bit truth table over at most MaxLeaves sorted leaves:
// variable i is leaf i, bit m is the value on minterm m, and a table over
// fewer leaves is padded, that is vacuous in the variables above its leaf
// count.
package cut

import "repro/internal/logic"

// MaxLeaves is the widest cut.
const MaxLeaves = 4

// Var holds the projection tables: Var[i] is the table of variable i.
var Var = [MaxLeaves]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}

// Leaves is a set of at most MaxLeaves non-negative leaf IDs, sorted
// ascending, with the unused slots 0. A non-empty set is determined by its
// array, so == on Leaves is set equality.
type Leaves [MaxLeaves]int32

// FromCover returns the table of f, a cover over at most MaxLeaves
// variables, padded above f.N.
func FromCover(f *logic.Cover) uint16 {
	var out uint16
	for _, c := range f.Cubes {
		cube := uint16(0xFFFF)
		for v := 0; v < c.N; v++ {
			switch c.Lit(v) {
			case logic.LitPos:
				cube &= Var[v]
			case logic.LitNeg:
				cube &^= Var[v]
			case logic.LitNone:
				cube = 0
			}
		}
		out |= cube
	}
	return out
}

// Merge returns the union of the leaf sets a (na leaves) and b (nb
// leaves) and its size; ok is false when the union exceeds MaxLeaves.
func Merge(a *Leaves, na uint8, b *Leaves, nb uint8) (u Leaves, n uint8, ok bool) {
	i, j := uint8(0), uint8(0)
	for i < na || j < nb {
		var x int32
		switch {
		case j == nb || (i < na && a[i] < b[j]):
			x = a[i]
			i++
		case i == na || b[j] < a[i]:
			x = b[j]
			j++
		default:
			x = a[i]
			i++
			j++
		}
		if n == MaxLeaves {
			return u, n, false
		}
		u[n] = x
		n++
	}
	return u, n, true
}

// Stretch re-expresses tt, a padded table over the leaves from (nFrom of
// them), over to (nTo leaves), a superset of from. Bit i of added is set
// for every position i of to that from lacks. Each variable moves to its
// position in to by one swap, highest first, with a position the table
// does not depend on, so the result is padded too.
func Stretch(tt uint16, from *Leaves, nFrom uint8, to *Leaves, nTo uint8) (out uint16, added uint8) {
	var pos [MaxLeaves]int
	j := uint8(0)
	for i := range int(nTo) {
		if j < nFrom && from[j] == to[i] {
			pos[j] = i
			j++
		} else {
			added |= 1 << i
		}
	}
	for k := int(nFrom) - 1; k >= 0; k-- {
		if pos[k] != k {
			tt = swap(tt, k, pos[k])
		}
	}
	return tt, added
}

// swap exchanges variables i < j of tt.
func swap(tt uint16, i, j int) uint16 {
	s := 1<<j - 1<<i
	m := Var[i] &^ Var[j] // minterms with x_i = 1, x_j = 0
	return tt&^(m|m<<s) | tt>>s&m | (tt&m)<<s
}

// Perms holds the 24 permutations of the 4 inputs in lexicographic order,
// and Inverse[k] is the index in Perms of the inverse of Perms[k]. The
// permutations of n < 4 inputs in lexicographic order are exactly the
// members of Perms that fix inputs n..3 (see Fixes), in the same order.
var Perms, Inverse = perms()

func perms() (ps [24][MaxLeaves]uint8, inv [24]uint8) {
	k := 0
	for a := range uint8(MaxLeaves) {
		for b := range uint8(MaxLeaves) {
			for c := range uint8(MaxLeaves) {
				for d := range uint8(MaxLeaves) {
					if 1<<a|1<<b|1<<c|1<<d == 0xF {
						ps[k] = [MaxLeaves]uint8{a, b, c, d}
						k++
					}
				}
			}
		}
	}
	for k, p := range ps {
		var q [MaxLeaves]uint8
		for i, v := range p {
			q[v] = uint8(i)
		}
		for l := range ps {
			if ps[l] == q {
				inv[k] = uint8(l)
			}
		}
	}
	return ps, inv
}

// Fixes reports whether p leaves inputs n..3 in place, that is whether it
// permutes only the first n inputs.
func Fixes(p *[MaxLeaves]uint8, n int) bool {
	for i := n; i < MaxLeaves; i++ {
		if p[i] != uint8(i) {
			return false
		}
	}
	return true
}

// Permute moves input i of tt to position p[i]: the result g has
// g(y) = tt(x) with x_i = y_p[i]. It sorts the positions by at most three
// swaps.
func Permute(tt uint16, p *[MaxLeaves]uint8) uint16 {
	var want [MaxLeaves]uint8 // want[k] is the input that ends at position k
	for i, v := range p {
		want[v] = uint8(i)
	}
	at := [MaxLeaves]uint8{0, 1, 2, 3} // at[k] is the input now at position k
	for k := range MaxLeaves - 1 {
		j := k
		for at[j] != want[k] {
			j++
		}
		if j != k {
			tt = swap(tt, k, j)
			at[k], at[j] = at[j], at[k]
		}
	}
	return tt
}
