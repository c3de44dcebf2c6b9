package aig

// This file builds the NPN-canonical rewriting library: every 4-input
// Boolean function (a uint16 truth table) is mapped to the canonical
// representative of its NPN class — the minimum table reachable by
// permuting inputs, negating inputs, and negating the output — and each
// class within reach carries a precomputed optimal AIG structure found by
// exhaustive bottom-up enumeration. The rewrite pass (rewrite.go) looks a
// cut's truth table up here, instantiates the stored structure over the
// cut leaves, and keeps it when MFFC accounting shows a net win.
//
// Everything is computed once at first use (buildNPN below, ~tens of
// milliseconds) and is immutable afterwards, so the parallel decision
// phase reads it without synchronization. The construction is
// deterministic: transforms are enumerated in a fixed nested order and
// ties always resolve to the first discovery.

import (
	"sync"

	"repro/internal/cut"
)

// npnTransform is one member of the NPN group for 4 inputs: an input
// permutation (index into cut.Perms), an input negation mask, and an
// output negation. Applied to f it yields g with
//
//	g(y0..y3) = f(x0..x3) ⊕ out, where x_i = y_{perm[i]} ⊕ neg_i.
type npnTransform struct {
	perm uint8 // index into cut.Perms
	neg  uint8 // bit i: input i of f is negated
	out  bool  // output negated
}

// ttApply computes the transformed table g = T·f as defined on
// npnTransform: negate the inputs in neg, move input i to position
// perm[i] (cut.Permute's convention), then negate the output.
func ttApply(tt uint16, t npnTransform) uint16 {
	for i, v := range cut.Var {
		if t.neg>>i&1 != 0 {
			s := 1 << i
			tt = tt&v>>s | tt&^v<<s
		}
	}
	tt = cut.Permute(tt, &cut.Perms[t.perm])
	if t.out {
		tt = ^tt
	}
	return tt
}

// invertTransform returns S with f = S·(T·f) for all f: if T = (π, ν, o)
// then S = (π⁻¹, ν∘π⁻¹, o) — the permutation inverts, the negation mask
// follows the inverted wires, the output flag is its own inverse.
func invertTransform(t npnTransform) npnTransform {
	inv := cut.Inverse[t.perm]
	ip := &cut.Perms[inv]
	var neg uint8
	for j := 0; j < 4; j++ {
		neg |= ((t.neg >> ip[j]) & 1) << j
	}
	return npnTransform{perm: inv, neg: neg, out: t.out}
}

// npnEntry is one row of the canonicalization table: the class
// representative of tt and the transform S with canon = S·tt.
type npnEntry struct {
	canon uint16
	xf    npnTransform
}

// libGate is one AND of a library structure. Fanins are tiny literals:
// value i<<1|c where i in 0..3 names canonical input i and i ≥ 4 names
// gate i-4 of the same structure; the low bit complements.
type libGate struct {
	a, b uint8
}

// libImpl is the optimal AIG structure of one NPN class: gates in
// topological order plus the output literal (same tiny-literal encoding).
type libImpl struct {
	gates []libGate
	out   uint8
}

// npnLib is the complete precomputed rewriting library.
type npnLib struct {
	canon   []npnEntry          // len 65536
	classes []uint16            // canonical representatives, ascending
	cost    []int8              // len 65536: exact tree-optimal AND count, -1 beyond bound
	gates   map[uint16]gateRec  // normalized table -> first-discovered AND decomposition
	impls   map[uint16]*libImpl // canonical rep -> optimal structure
}

// libMaxNodes bounds the bottom-up structure enumeration: every table
// with a tree cost within the bound gets an exactly optimal structure.
// Deeper classes exist (4-input parity alone needs 9 ANDs as a tree, a
// handful of classes need more than 12) but enumeration cost grows
// sharply with the bound, so classes beyond it are completed by Shannon
// decomposition in buildImpls — correct structures with an upper-bound
// cost — keeping init around 70ms.
const libMaxNodes = 9

var (
	theLib  *npnLib
	libOnce sync.Once
)

// getNPNLib returns the shared immutable library, building it on first use.
func getNPNLib() *npnLib {
	libOnce.Do(func() { theLib = buildNPN() })
	return theLib
}

// InitLibraries forces the one-time construction of the NPN rewrite
// library (tens of milliseconds). Rewrite calls it implicitly; benchmark
// harnesses call it up front so the init cost does not land inside the
// first measured wall.
func InitLibraries() { getNPNLib() }

func buildNPN() *npnLib {
	lib := &npnLib{
		canon: make([]npnEntry, 1<<16),
		cost:  make([]int8, 1<<16),
		impls: make(map[uint16]*libImpl),
	}
	lib.buildCanon()
	lib.buildCosts()
	lib.buildImpls()
	return lib
}

// buildCanon fills the canonicalization table by orbit expansion: scanning
// tables in ascending order, the first table not yet claimed by an earlier
// orbit is its class's minimum (every smaller member would have claimed it
// already), so it becomes the representative and one sweep over the 768
// transforms claims the whole orbit. Total work is #classes × 768 rather
// than 65536 × 768.
func (lib *npnLib) buildCanon() {
	seen := make([]bool, 1<<16)
	for tt := 0; tt < 1<<16; tt++ {
		if seen[tt] {
			continue
		}
		rep := uint16(tt)
		lib.classes = append(lib.classes, rep)
		for o := 0; o < 2; o++ {
			for neg := 0; neg < 16; neg++ {
				for p := 0; p < 24; p++ {
					t := npnTransform{perm: uint8(p), neg: uint8(neg), out: o == 1}
					v := ttApply(rep, t)
					if seen[v] {
						continue
					}
					seen[v] = true
					// canon = S·v must hold; S is the inverse of the expansion
					// transform that produced v from the representative.
					lib.canon[v] = npnEntry{canon: rep, xf: invertTransform(t)}
				}
			}
		}
	}
}

// gateRec records how a table was first reached during enumeration: as the
// AND of two (possibly complemented) earlier tables. Only the normalized
// form (low minterm clear) of each pair {h, ^h} stores a record; raw is
// the actual AND output, which may be the complement of the key.
type gateRec struct {
	fa, fb, raw uint16
}

// buildCosts runs the bottom-up exhaustive enumeration: lists[k] holds
// every table first reachable with exactly k AND nodes as a fanin-tree
// (free input/output inverters), built by combining a j-node and a
// (k-1-j)-node table under all four fanin phase combinations. Because a
// table is recorded the first time it appears and levels are processed in
// ascending k, the recorded cost is the exact tree-optimal AND count.
func (lib *npnLib) buildCosts() {
	for i := range lib.cost {
		lib.cost[i] = -1
	}
	lib.gates = make(map[uint16]gateRec)
	setCost := func(tt uint16, k int8) {
		lib.cost[tt] = k
		lib.cost[^tt] = k
	}
	setCost(0x0000, 0)
	for _, v := range cut.Var {
		setCost(v, 0)
	}
	lists := make([][]uint16, libMaxNodes+1)
	lists[0] = cut.Var[:]
	for k := 1; k <= libMaxNodes; k++ {
		for i := 0; i <= (k-1)/2; i++ {
			j := k - 1 - i
			for ai, f := range lists[i] {
				bl := lists[j]
				if i == j {
					// Unordered pairs: AND is commutative.
					bl = bl[ai:]
				}
				for _, g := range bl {
					for ph := 0; ph < 4; ph++ {
						fa, fb := f, g
						if ph&1 != 0 {
							fa = ^fa
						}
						if ph&2 != 0 {
							fb = ^fb
						}
						h := fa & fb
						if lib.cost[h] >= 0 {
							continue
						}
						setCost(h, int8(k))
						key := h
						if key&1 != 0 {
							key = ^key
						}
						lib.gates[key] = gateRec{fa: fa, fb: fb, raw: h}
						lists[k] = append(lists[k], h)
					}
				}
			}
		}
	}
}

// cofTT4 cofactors a 4-variable table against variable i, replicating the
// surviving half so the result is vacuous in i.
func cofTT4(tt uint16, i int, pos bool) uint16 {
	shift := uint(1) << i
	if pos {
		t := tt & cut.Var[i]
		return t | t>>shift
	}
	t := tt &^ cut.Var[i]
	return t | t<<shift
}

// buildImpls materializes a structure for every canonical representative.
// Tables within the enumeration bound unroll their recorded gate chains,
// memoizing shared subfunctions so the structure is a DAG no larger than
// the tree cost. Classes the bound missed are completed by Shannon
// decomposition — f = s·f1 + s̄·f0 as three ANDs over the cheapest split
// variable — whose cofactors are 3-variable functions and therefore
// always inside the bound. Shannon structures are correct but only
// upper-bound optimal; their class cost is set to the realized gate
// count, which necessarily exceeds the enumeration bound.
func (lib *npnLib) buildImpls() {
	for _, rep := range lib.classes {
		if rep == 0x0000 {
			// The constant class: the rewriter substitutes True/False directly.
			continue
		}
		impl := &libImpl{}
		// memo holds, per normalized table (low minterm clear), the tiny
		// literal of the emitted gate computing that table.
		memo := make(map[uint16]uint8)
		emit := func(a, b uint8) uint8 {
			l := uint8((4 + len(impl.gates)) << 1)
			impl.gates = append(impl.gates, libGate{a: a, b: b})
			return l
		}
		var build func(t uint16) uint8
		build = func(t uint16) uint8 {
			for i, v := range cut.Var {
				if t == v {
					return uint8(i << 1)
				}
				if t == ^v {
					return uint8(i<<1 | 1)
				}
			}
			key := t
			if key&1 != 0 {
				key = ^key
			}
			if l, ok := memo[key]; ok {
				if t != key {
					l ^= 1
				}
				return l
			}
			var l uint8 // literal computing key
			if rec, ok := lib.gates[key]; ok {
				l = emit(build(rec.fa), build(rec.fb))
				if rec.raw != key {
					l ^= 1
				}
			} else {
				// Shannon completion: pick the split whose cofactors are
				// cheapest (ties to the lowest variable — deterministic).
				best, bestCost := 0, int(127)
				for i := 0; i < 4; i++ {
					c0, c1 := lib.cost[cofTT4(key, i, false)], lib.cost[cofTT4(key, i, true)]
					if c0 < 0 || c1 < 0 {
						continue // cofactor itself beyond bound (never for 3-var)
					}
					if c := int(c0) + int(c1); c < bestCost {
						best, bestCost = i, c
					}
				}
				s := uint8(best << 1)
				l1 := build(cofTT4(key, best, true))
				l0 := build(cofTT4(key, best, false))
				g1 := emit(s, l1)    // s·f1
				g2 := emit(s^1, l0)  // s̄·f0
				l = emit(g1^1, g2^1) // ¬(s·f1) · ¬(s̄·f0) = ¬key
				l ^= 1
			}
			memo[key] = l
			if t != key {
				l ^= 1
			}
			return l
		}
		impl.out = build(rep)
		lib.impls[rep] = impl
		if lib.cost[rep] < 0 {
			c := int8(len(impl.gates))
			lib.cost[rep] = c
			lib.cost[^rep] = c
		}
	}
}

// instantiate materializes the structure over concrete graph literals:
// leaves[i] drives canonical input i (entries a minimal structure never
// reads may be anything), and the and callback builds or prices each gate.
// The output literal computes the canonical function of the class.
func (im *libImpl) instantiate(leaves *[4]Lit, and func(a, b Lit) Lit) Lit {
	var lits [4 + 16]Lit
	copy(lits[:4], leaves[:])
	resolve := func(l uint8) Lit { return lits[l>>1].NotIf(l&1 != 0) }
	for i, gate := range im.gates {
		lits[4+i] = and(resolve(gate.a), resolve(gate.b))
	}
	return resolve(im.out)
}

// cutLeafLits maps a cut's truth table onto impl inputs: given the stored
// transform S = (π, ν, o) with canon = S·f, the canonical structure's
// input k must be driven by cut leaf π⁻¹(k) negated per ν at that wire,
// and the structure output is complemented when o is set. See
// TestNPNInstantiationComputesCut for the end-to-end check pinning this
// convention.
func cutLeafLits(xf npnTransform, leafLits *[4]Lit) (mapped [4]Lit, outNeg bool) {
	ip := &cut.Perms[cut.Inverse[xf.perm]]
	for k := 0; k < 4; k++ {
		src := ip[k]
		mapped[k] = leafLits[src].NotIf(xf.neg>>src&1 != 0)
	}
	return mapped, xf.out
}
