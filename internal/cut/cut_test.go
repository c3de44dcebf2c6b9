package cut

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// referenceStretch is the per-minterm re-expression of a table over leaf
// set from as a table over the superset to, replicated across the vacuous
// variables above nTo.
func referenceStretch(tt uint16, from *Leaves, nFrom uint8, to *Leaves, nTo uint8) uint16 {
	if nFrom == nTo {
		return tt
	}
	var pos [MaxLeaves]int8
	j := uint8(0)
	for i := uint8(0); i < nTo; i++ {
		if j < nFrom && from[j] == to[i] {
			pos[i] = int8(j)
			j++
		} else {
			pos[i] = -1
		}
	}
	var out uint16
	for m := 0; m < 1<<nTo; m++ {
		src := 0
		for i := uint8(0); i < nTo; i++ {
			if pos[i] >= 0 && m&(1<<i) != 0 {
				src |= 1 << uint(pos[i])
			}
		}
		out |= (tt >> src & 1) << m
	}
	for w := nTo; w < MaxLeaves; w++ {
		out |= out << (1 << w)
	}
	return out
}

// referencePermute reorders the variables of an n-variable table: new
// variable i is old variable perm[i].
func referencePermute(tt uint16, n int, perm []int) uint16 {
	var out uint16
	for m := 0; m < 1<<uint(n); m++ {
		om := 0
		for i := 0; i < n; i++ {
			if m&(1<<uint(i)) != 0 {
				om |= 1 << uint(perm[i])
			}
		}
		if tt&(1<<uint(om)) != 0 {
			out |= 1 << uint(m)
		}
	}
	return out
}

// referencePerms lists the permutations of n inputs in lexicographic order.
func referencePerms(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, slices.Clone(cur))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, n))
	return out
}

// pad replicates the low 2^n bits of tt across the variables above n.
func pad(tt uint16, n int) uint16 {
	tt &= uint16(1<<(1<<n) - 1)
	for w := n; w < MaxLeaves; w++ {
		tt |= tt << (1 << w)
	}
	return tt
}

// leavesOf packs the members of ids whose bit is set in mask, ascending.
func leavesOf(ids *Leaves, mask int) (l Leaves, n uint8) {
	for i, id := range ids {
		if mask>>i&1 != 0 {
			l[n] = id
			n++
		}
	}
	return l, n
}

// TestStretchMatchesReference stretches random padded tables over every
// leaf subset of random 4-leaf supersets onto the superset and onto every
// intermediate superset, and checks the table and the added positions.
func TestStretchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var super Leaves
		next := int32(rng.Intn(3))
		for i := range super {
			super[i] = next
			next += 1 + int32(rng.Intn(70))
		}
		for toMask := 1; toMask < 16; toMask++ {
			to, nTo := leavesOf(&super, toMask)
			for fromMask := 1; fromMask < 16; fromMask++ {
				if fromMask&^toMask != 0 {
					continue
				}
				from, nFrom := leavesOf(&super, fromMask)
				tt := pad(uint16(rng.Uint32()), int(nFrom))
				got, added := Stretch(tt, &from, nFrom, &to, nTo)
				if want := referenceStretch(tt, &from, nFrom, &to, nTo); got != want {
					t.Fatalf("Stretch(%04x, %v, %v) = %04x, want %04x", tt, from[:nFrom], to[:nTo], got, want)
				}
				var wantAdded uint8
				for i, id := range to[:nTo] {
					if !slices.Contains(from[:nFrom], id) {
						wantAdded |= 1 << i
					}
				}
				if added != wantAdded {
					t.Fatalf("Stretch(%v, %v) added %04b, want %04b", from[:nFrom], to[:nTo], added, wantAdded)
				}
			}
		}
	}
}

// TestMergeMatchesSetUnion merges random sorted leaf sets of 1..4 leaves
// drawn from a small range, so unions overlap and often exceed 4 leaves.
func TestMergeMatchesSetUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	draw := func() (Leaves, uint8, []int32) {
		set := map[int32]bool{}
		for k := 1 + rng.Intn(MaxLeaves); len(set) < k; {
			set[int32(rng.Intn(8))] = true
		}
		ids := make([]int32, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var l Leaves
		copy(l[:], ids)
		return l, uint8(len(ids)), ids
	}
	over := 0
	for trial := 0; trial < 20000; trial++ {
		a, na, sa := draw()
		b, nb, sb := draw()
		want := append(slices.Clone(sa), sb...)
		slices.Sort(want)
		want = slices.Compact(want)
		u, n, ok := Merge(&a, na, &b, nb)
		if len(want) > MaxLeaves {
			over++
			if ok {
				t.Fatalf("Merge(%v, %v) = %v, want failure", sa, sb, u[:n])
			}
			continue
		}
		var wl Leaves
		copy(wl[:], want)
		if !ok || n != uint8(len(want)) || u != wl {
			t.Fatalf("Merge(%v, %v) = %v (n %d, ok %v), want %v", sa, sb, u, n, ok, wl)
		}
	}
	if over == 0 {
		t.Fatal("no union exceeded the cut width")
	}
}

// TestFromCoverMatchesEval compares FromCover with per-minterm Cover.Eval
// on random covers of 0..4 variables, including cubes with an empty
// literal, and checks the padding above the cover's variables.
func TestFromCoverMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lits := []logic.Lit{logic.LitPos, logic.LitNeg, logic.LitBoth, logic.LitBoth}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(MaxLeaves + 1)
		f := logic.NewCover(n)
		for range rng.Intn(5) {
			c := logic.NewCube(n)
			for v := 0; v < n; v++ {
				l := lits[rng.Intn(len(lits))]
				if rng.Intn(40) == 0 {
					l = logic.LitNone
				}
				c.SetLit(v, l)
			}
			f.Cubes = append(f.Cubes, c)
		}
		var want uint16
		assign := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for v := range assign {
				assign[v] = m>>v&1 != 0
			}
			if f.Eval(assign) {
				want |= 1 << m
			}
		}
		if got := FromCover(f); got != pad(want, n) {
			t.Fatalf("FromCover(%v) = %04x, want %04x", f, got, pad(want, n))
		}
	}
}

// TestPermsAreLexicographic checks the permutation table and its
// inverses, and that the permutations of n < 4 inputs in lexicographic
// order are the members of Perms that fix inputs n..3, in order.
func TestPermsAreLexicographic(t *testing.T) {
	for n := 0; n <= MaxLeaves; n++ {
		var got [][]int
		for k := range Perms {
			if !Fixes(&Perms[k], n) {
				continue
			}
			p := make([]int, n)
			for i := range p {
				p[i] = int(Perms[k][i])
			}
			got = append(got, p)
		}
		if want := referencePerms(n); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("permutations of %d inputs: %v, want %v", n, got, want)
		}
	}
	for k, p := range Perms {
		q := Perms[Inverse[k]]
		for i := range p {
			if q[p[i]] != uint8(i) {
				t.Fatalf("Inverse[%d] = %d: %v is not the inverse of %v", k, Inverse[k], q, p)
			}
		}
	}
}

// TestPermuteMatchesReference checks Permute's convention (input i moves
// to position p[i]) against the per-minterm reference's (new variable i is
// old variable perm[i]), on random 4-input tables and on unpadded n-input
// tables under the permutations that fix inputs n..3.
func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		for n := 0; n <= MaxLeaves; n++ {
			tt := uint16(rng.Uint32()) & uint16(1<<(1<<n)-1)
			for k := range Perms {
				if !Fixes(&Perms[k], n) {
					continue
				}
				perm := make([]int, n)
				for i := range perm {
					perm[i] = int(Perms[k][i])
				}
				want := referencePermute(tt, n, perm)
				if got := Permute(tt, &Perms[Inverse[k]]); got != want {
					t.Fatalf("n=%d: Permute(%04x, %v) = %04x, want %04x", n, tt, Perms[Inverse[k]], got, want)
				}
			}
		}
	}
}
