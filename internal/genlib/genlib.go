// Package genlib models a SIS-style technology library: gates with SOP
// functions, areas and pin-to-output delays, plus an embedded lib2-like
// library whose area/delay magnitudes follow the MCNC lib2.genlib used in
// the paper's experiments ("mapped using the lib2 technology library").
package genlib

import (
	"fmt"

	"repro/internal/cut"
	"repro/internal/logic"
)

// Gate is one library cell with a single output.
type Gate struct {
	Name string
	Area float64
	// Func is the gate function over pin variables 0..NumPins-1.
	Func *logic.Cover
	// PinDelays holds the pin-to-output propagation delay per input pin.
	PinDelays []float64
	// tt is the truth table over the pins (bit m = value on minterm m).
	tt uint16
}

// NumPins returns the input count.
func (g *Gate) NumPins() int { return len(g.PinDelays) }

// TT returns the gate's truth table (2^pins significant bits).
func (g *Gate) TT() uint16 { return g.tt }

// MaxDelay returns the slowest pin delay.
func (g *Gate) MaxDelay() float64 {
	d := 0.0
	for _, p := range g.PinDelays {
		if p > d {
			d = p
		}
	}
	return d
}

// Bound is the network annotation tying a node to a library gate with a
// pin permutation: node fanin i drives gate pin PinOf[i].
type Bound struct {
	G     *Gate
	PinOf []int
}

// GateName implements network.GateRef.
func (b *Bound) GateName() string { return b.G.Name }

// GateArea implements network.GateRef.
func (b *Bound) GateArea() float64 { return b.G.Area }

// PinDelay implements network.GateRef.
func (b *Bound) PinDelay(i int) float64 {
	if i < len(b.PinOf) {
		return b.G.PinDelays[b.PinOf[i]]
	}
	return b.G.MaxDelay()
}

// Library is a set of gates indexed for matching.
type Library struct {
	Name  string
	Gates []*Gate
	// RegisterArea is charged per register when reporting mapped area.
	RegisterArea float64
	// matches holds, for every permutation image (pins, tt) of every gate,
	// the gates implementing it with their pin assignments.
	matches map[matchKey][]Match
}

// matchKey packs a pin count and a truth table into one word, so a lookup
// is a 32-bit map probe.
type matchKey uint32

func keyOf(pins int, tt uint16) matchKey { return matchKey(pins)<<16 | matchKey(tt) }

// CanonTT returns the minimum truth table over all permutations of its
// n ≤ 4 inputs and the permutation achieving it (canonical variable ->
// original variable), the lexicographically first on ties.
func CanonTT(tt uint16, n int) (uint16, []int) {
	best, bestK := tt, -1
	for k := range cut.Perms {
		if !cut.Fixes(&cut.Perms[k], n) {
			continue
		}
		if c := permuted(tt, k); bestK < 0 || c < best {
			best, bestK = c, k
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = int(cut.Perms[bestK][i])
	}
	return best, perm
}

// permuted reorders tt's variables so that new variable i is old variable
// cut.Perms[k][i]; cut.Permute moves old variable i to position p[i], so
// it takes the inverse permutation.
func permuted(tt uint16, k int) uint16 {
	return cut.Permute(tt, &cut.Perms[cut.Inverse[k]])
}

// NewLibrary indexes the given gates for matching.
func NewLibrary(name string, regArea float64, gates []*Gate) (*Library, error) {
	type canonGate struct {
		g *Gate
		// perm maps canonical variable index -> gate pin.
		perm []int
	}
	byCanon := make(map[matchKey][]canonGate)
	for _, g := range gates {
		n := g.NumPins()
		if n > 4 {
			return nil, fmt.Errorf("genlib: gate %s has %d pins (max 4)", g.Name, n)
		}
		if g.Func.N != n {
			return nil, fmt.Errorf("genlib: gate %s: %d cover vars for %d pins", g.Name, g.Func.N, n)
		}
		g.tt = cut.FromCover(g.Func) & (1<<(1<<n) - 1)
		canon, perm := CanonTT(g.tt, n)
		key := keyOf(n, canon)
		byCanon[key] = append(byCanon[key], canonGate{g, perm})
	}
	// Index under every permutation image so lookup is a single probe. A
	// query tt over n variables matches exactly the gates whose canonical
	// form equals its own, and every such tt is an image of those gates.
	lib := &Library{Name: name, Gates: gates, RegisterArea: regArea,
		matches: make(map[matchKey][]Match)}
	for _, g := range gates {
		n := g.NumPins()
		for k := range cut.Perms {
			if !cut.Fixes(&cut.Perms[k], n) {
				continue
			}
			tt := permuted(g.tt, k)
			if _, done := lib.matches[keyOf(n, tt)]; done {
				continue
			}
			canon, permQ := CanonTT(tt, n)
			var ms []Match
			for _, c := range byCanon[keyOf(n, canon)] {
				// canonical var i corresponds to query var permQ[i] and to
				// gate pin c.perm[i]; so query var permQ[i] -> pin c.perm[i].
				pinFor := make([]int, n)
				for i := 0; i < n; i++ {
					pinFor[permQ[i]] = c.perm[i]
				}
				ms = append(ms, Match{G: c.g, PinFor: pinFor})
			}
			lib.matches[keyOf(n, tt)] = ms
		}
	}
	return lib, nil
}

// Match returns gates implementing the given truth table over n inputs.
// Each result's PinFor maps tt-variable index -> gate pin.
type Match struct {
	G      *Gate
	PinFor []int
}

// Match looks up gates whose function equals tt over n variables, up to
// input permutation, in library order. Bits of tt above minterm 2^n-1 are
// ignored. The returned slice and its PinFor slices are shared by every
// caller of the library, including concurrent ones, and must not be
// modified.
func (lib *Library) Match(tt uint16, n int) []Match {
	if n < 4 {
		tt &= uint16(1)<<(1<<uint(n)) - 1
	}
	return lib.matches[keyOf(n, tt)]
}
