package aig

import (
	"math/rand"
	"testing"

	"repro/internal/cut"
)

// ttOfLit evaluates a literal of a 4-PI graph as a truth table, given the
// table of each PI. The independent simulation oracle for library tests.
func ttOfLit(g *Graph, l Lit, piTT map[int32]uint16) uint16 {
	tts := make([]uint16, len(g.nodes))
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if g.IsAnd(id) {
			n := g.nodes[id]
			a := tts[n.f0.Node()]
			if n.f0.Compl() {
				a = ^a
			}
			b := tts[n.f1.Node()]
			if n.f1.Compl() {
				b = ^b
			}
			tts[id] = a & b
		} else if v, ok := piTT[id]; ok {
			tts[id] = v
		}
	}
	t := tts[l.Node()]
	if l.Compl() {
		t = ^t
	}
	return t
}

// referenceTTApply is T·f by direct minterm evaluation, the definition on
// npnTransform.
func referenceTTApply(tt uint16, t npnTransform) uint16 {
	p := &cut.Perms[t.perm]
	var r uint16
	for m := 0; m < 16; m++ {
		src := 0
		for i := 0; i < 4; i++ {
			bit := int(m>>p[i]&1) ^ int(t.neg>>i&1)
			src |= bit << i
		}
		b := tt >> src & 1
		if t.out {
			b ^= 1
		}
		r |= b << m
	}
	return r
}

// TestTTApplyMatchesReference checks every transform of the NPN group on
// a spread of tables against the per-minterm definition.
func TestTTApplyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for p := 0; p < 24; p++ {
		for neg := 0; neg < 16; neg++ {
			for o := 0; o < 2; o++ {
				xf := npnTransform{perm: uint8(p), neg: uint8(neg), out: o == 1}
				for k := 0; k < 8; k++ {
					tt := uint16(r.Uint32())
					if got, want := ttApply(tt, xf), referenceTTApply(tt, xf); got != want {
						t.Fatalf("ttApply(%04x, %+v) = %04x, want %04x", tt, xf, got, want)
					}
				}
			}
		}
	}
}

// TestNPNCanonicalTable checks the canonicalization table exhaustively:
// the stored transform really maps each table to its representative, the
// representative is a fixpoint, and the class count is the known 222 for
// 4-variable NPN equivalence.
func TestNPNCanonicalTable(t *testing.T) {
	lib := getNPNLib()
	if got := len(lib.classes); got != 222 {
		t.Fatalf("4-input NPN class count = %d, want 222", got)
	}
	for tt := 0; tt < 1<<16; tt++ {
		e := lib.canon[tt]
		if got := ttApply(uint16(tt), e.xf); got != e.canon {
			t.Fatalf("tt %04x: stored transform yields %04x, canon says %04x", tt, got, e.canon)
		}
		if rep := lib.canon[e.canon]; rep.canon != e.canon {
			t.Fatalf("tt %04x: representative %04x is not a fixpoint (-> %04x)",
				tt, e.canon, rep.canon)
		}
		if e.canon > uint16(tt) {
			t.Fatalf("tt %04x: representative %04x is not the class minimum", tt, e.canon)
		}
	}
}

// TestNPNCanonicalInvariance: applying any NPN transform must not change
// which representative a table maps to — the whole point of the table.
func TestNPNCanonicalInvariance(t *testing.T) {
	lib := getNPNLib()
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		tt := uint16(r.Uint32())
		xf := npnTransform{
			perm: uint8(r.Intn(24)),
			neg:  uint8(r.Intn(16)),
			out:  r.Intn(2) == 1,
		}
		v := ttApply(tt, xf)
		if lib.canon[tt].canon != lib.canon[v].canon {
			t.Fatalf("canon not NPN-invariant: %04x -> %04x but transform to %04x -> %04x",
				tt, lib.canon[tt].canon, v, lib.canon[v].canon)
		}
	}
}

// TestNPNTransformInverse pins the group algebra: invertTransform really
// inverts, for every transform and a spread of tables.
func TestNPNTransformInverse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for p := 0; p < 24; p++ {
		for neg := 0; neg < 16; neg++ {
			for o := 0; o < 2; o++ {
				xf := npnTransform{perm: uint8(p), neg: uint8(neg), out: o == 1}
				inv := invertTransform(xf)
				for k := 0; k < 4; k++ {
					tt := uint16(r.Uint32())
					if got := ttApply(ttApply(tt, xf), inv); got != tt {
						t.Fatalf("transform %+v not inverted by %+v: %04x -> %04x",
							xf, inv, tt, got)
					}
				}
			}
		}
	}
}

// TestNPNCanonicalAgainstBruteForce compares the orbit-expansion table
// against exhaustive enumeration of the whole NPN group: the minimum over
// all 768 transforms, computed directly per table, must equal the stored
// representative. Run on a seeded sample plus known corner tables — the
// full 65536×768 product is covered indirectly by TestNPNCanonicalTable's
// exhaustive fixpoint/transform checks.
func TestNPNCanonicalAgainstBruteForce(t *testing.T) {
	lib := getNPNLib()
	brute := func(tt uint16) uint16 {
		min := tt
		for o := 0; o < 2; o++ {
			for neg := 0; neg < 16; neg++ {
				for p := 0; p < 24; p++ {
					v := ttApply(tt, npnTransform{perm: uint8(p), neg: uint8(neg), out: o == 1})
					if v < min {
						min = v
					}
				}
			}
		}
		return min
	}
	sample := []uint16{0x0000, 0xFFFF, 0xAAAA, 0x5555, 0x8888, 0x8000, 0x0001,
		0x6996, 0x1EE1, 0xCAFE, 0xBEEF, 0x0123}
	r := rand.New(rand.NewSource(17))
	n := 1500
	if testing.Short() {
		n = 200
	}
	for i := 0; i < n; i++ {
		sample = append(sample, uint16(r.Uint32()))
	}
	for _, tt := range sample {
		if got, want := lib.canon[tt].canon, brute(tt); got != want {
			t.Fatalf("tt %04x: table says canon %04x, brute-force group minimum %04x",
				tt, got, want)
		}
	}
}

// exhaustiveTreeCosts recomputes minimal AND-tree costs with an
// independent fixpoint formulation — a snapshot-pair relaxation over a
// growing set, rerun until no cost improves — as the oracle for the
// library's leveled enumeration.
func exhaustiveTreeCosts(bound int) map[uint16]int {
	cost := map[uint16]int{}
	var items []uint16
	add := func(tt uint16, c int) bool {
		if old, ok := cost[tt]; ok && old <= c {
			return false
		}
		if _, ok := cost[tt]; !ok {
			items = append(items, tt)
		}
		if _, ok := cost[^tt]; !ok {
			items = append(items, ^tt)
		}
		cost[tt] = c
		cost[^tt] = c
		return true
	}
	add(0x0000, 0)
	for _, v := range cut.Var {
		add(v, 0)
	}
	for changed := true; changed; {
		changed = false
		snap := append([]uint16(nil), items...)
		for i, a := range snap {
			ca := cost[a]
			if ca >= bound {
				continue
			}
			for _, b := range snap[i:] {
				c := ca + cost[b] + 1
				if c > bound {
					continue
				}
				if add(a&b, c) {
					changed = true
				}
			}
		}
	}
	return cost
}

// TestNPNLibraryMatchesExhaustive compares the leveled enumeration against
// the independent fixpoint oracle on every table within a reduced bound
// (the full bound-7 oracle would square 65536 tables per round; bound 4
// already crosses every structural case: shared levels, phase choices,
// asymmetric splits). It also asserts full class coverage at the real
// bound and that each stored structure simulates to its representative
// with no more gates than the recorded optimum.
func TestNPNLibraryMatchesExhaustive(t *testing.T) {
	lib := getNPNLib()
	oracleBound := 4
	if testing.Short() {
		oracleBound = 3
	}
	oracle := exhaustiveTreeCosts(oracleBound)
	for tt := 0; tt < 1<<16; tt++ {
		want, ok := oracle[uint16(tt)]
		if !ok {
			// Oracle bound reached: the library may know a cost here (its
			// bound is higher); it must not claim a *lower* one.
			if c := lib.cost[tt]; c >= 0 && int(c) <= oracleBound {
				t.Fatalf("tt %04x: library cost %d but oracle found nothing within %d",
					tt, c, oracleBound)
			}
			continue
		}
		if got := lib.cost[tt]; int(got) != want {
			t.Fatalf("tt %04x: library cost %d, exhaustive oracle %d", tt, got, want)
		}
	}
	piTT := map[int32]uint16{}
	g := New("lib")
	var leaves [4]Lit
	for i := 0; i < 4; i++ {
		leaves[i] = g.AddPI(string(rune('a' + i)))
		piTT[leaves[i].Node()] = cut.Var[i]
	}
	for _, rep := range lib.classes {
		if rep == 0x0000 {
			continue
		}
		if lib.cost[rep] < 0 {
			t.Fatalf("class %04x not covered within %d nodes", rep, libMaxNodes)
		}
		impl, ok := lib.impls[rep]
		if !ok {
			t.Fatalf("class %04x has a cost but no structure", rep)
		}
		if len(impl.gates) > int(lib.cost[rep]) {
			t.Fatalf("class %04x: structure has %d gates, optimum is %d",
				rep, len(impl.gates), lib.cost[rep])
		}
		lit := impl.instantiate(&leaves, g.And)
		if got := ttOfLit(g, lit, piTT); got != rep {
			t.Fatalf("class %04x: structure simulates to %04x", rep, got)
		}
	}
}

// TestNPNInstantiationComputesCut is the end-to-end convention check the
// rewriter relies on: for an arbitrary table, canonicalize, wire the class
// structure through cutLeafLits, and the result must simulate back to the
// original table — pinning the inverse-permutation/negation bookkeeping.
func TestNPNInstantiationComputesCut(t *testing.T) {
	lib := getNPNLib()
	g := New("inst")
	piTT := map[int32]uint16{}
	var leafLits [4]Lit
	for i := 0; i < 4; i++ {
		leafLits[i] = g.AddPI(string(rune('a' + i)))
		piTT[leafLits[i].Node()] = cut.Var[i]
	}
	r := rand.New(rand.NewSource(31))
	check := func(tt uint16) {
		if tt == 0x0000 || tt == 0xFFFF {
			return // constant classes: the rewriter substitutes directly
		}
		e := lib.canon[tt]
		impl, ok := lib.impls[e.canon]
		if !ok {
			t.Fatalf("tt %04x: class %04x has no structure", tt, e.canon)
		}
		mapped, outNeg := cutLeafLits(e.xf, &leafLits)
		lit := impl.instantiate(&mapped, g.And).NotIf(outNeg)
		if got := ttOfLit(g, lit, piTT); got != tt {
			t.Fatalf("tt %04x: instantiation simulates to %04x (class %04x, xf %+v)",
				tt, got, e.canon, e.xf)
		}
	}
	for _, tt := range []uint16{0xAAAA, 0x5555, 0x00FF, 0x8000, 0x6996, 0xCAFE, 0x1234} {
		check(tt)
	}
	for trial := 0; trial < 3000; trial++ {
		check(uint16(r.Uint32()))
	}
}
