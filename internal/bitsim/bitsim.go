// Package bitsim is the bit-parallel (word-packed) simulation engine
// behind the random-vector spot checks: it compiles each node's SOP cover
// once per network into a straight-line program of 2-input AND ops and
// then evaluates 64 independent input vectors per uint64 word operation.
//
// Values are ternary (0/1/X) and encoded dual-rail: every signal carries
// two bit-planes, `one` and `zero`, with one bit per simulation lane. A
// lane with the `one` bit set holds 1, with the `zero` bit set holds 0,
// and with neither holds X; both set is impossible by construction. A
// Block keeps the two planes of slot s interleaved, one at rail[2s] and
// zero at rail[2s+1], so a literal code 2·s + negated indexes its own
// one-plane directly and its zero-plane at code^1: negation swaps the
// rails and costs nothing. The one op the program needs is
//
//	AND(a, b).one  = a.one  & b.one    (both literals are 1)
//	AND(a, b).zero = a.zero | b.zero   (some literal is 0)
//
// A cube is a chain of such ops, and a cover is the same op applied by De
// Morgan, OR(c1, …, cm) = ¬AND(¬c1, …, ¬cm). That realizes exactly the
// conservative (Kleene) 3-valued semantics of the scalar simulator in
// internal/sim — that scalar path stays around as the oracle, and the
// property suite in this package pins the two against each other
// bit-for-bit over random networks, states and X-patterns.
//
// One Block holds one word (64 lanes) of simulation state with all buffers
// preallocated, so steady-state stepping performs zero allocations.
// RandomEquivalent, the spot check of the verification ladder, runs one
// Block per network inline, each lane on its own random input stream.
package bitsim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
)

// LanesPerWord is the number of simulation lanes packed into one uint64.
const LanesPerWord = 64

// Reserved slots ahead of the signals: slot 0 is the constant 0 (its
// negated code is the constant 1), and slot 1 is the scratch slot a
// multi-cube cover builds its later cubes in.
const (
	codeFalse = 0
	codeTrue  = 1
	codeTmp   = 2
	firstSlot = 2
)

// op is one 2-input AND over dual-rail literal codes: it stores the
// conjunction of codes a and b under code d, so its one-plane lands at
// rail[d] and its zero-plane at rail[d^1]. An odd d stores the negation.
type op struct{ d, a, b int32 }

// Sim is a compiled bit-parallel simulator for one network. It is
// immutable after Compile and safe for concurrent use; all mutable state
// lives in Blocks.
type Sim struct {
	nSig int

	// Codes (2·slot) of the PIs, PO drivers, latch outputs and latch
	// drivers.
	piCode       []int32
	poCode       []int32
	latchOutCode []int32
	latchDrvCode []int32
	latchInit    []network.Value
	ops          []op
}

// Compile lowers n into one straight-line AND program over the memoized
// topological order. Each node writes its own slot; a void cube is
// dropped, and the empty cover and the universal cube read the constant
// slot.
func Compile(n *network.Network) (*Sim, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Sim{}
	code := make([]int32, n.NumIDs()) // by Node.ID; 0 (the constant) marks "not yet built"
	add := func(v *network.Node) int32 {
		if code[v.ID] == 0 {
			code[v.ID] = int32(2 * (firstSlot + s.nSig))
			s.nSig++
		}
		return code[v.ID]
	}
	built := func(v *network.Node) (int32, bool) {
		if v.ID >= len(code) || code[v.ID] == 0 {
			return 0, false
		}
		return code[v.ID], true
	}
	for _, p := range n.PIs {
		s.piCode = append(s.piCode, add(p))
	}
	for _, l := range n.Latches {
		s.latchOutCode = append(s.latchOutCode, add(l.Output))
		s.latchInit = append(s.latchInit, l.Init)
	}
	var fan, lits []int32
	for _, v := range order {
		fan = fan[:0]
		for _, fi := range v.Fanins {
			c, ok := built(fi)
			if !ok {
				return nil, fmt.Errorf("bitsim: %s: fanin %s used before definition", v.Name, fi.Name)
			}
			fan = append(fan, c)
		}
		out := add(v)
		// The first cube builds in the output slot; from the second cube
		// on, the slot holds the negated cover so far, ¬c1 ∧ … ∧ ¬ci.
		var first int32
		cubes := 0
		for _, c := range v.Func.Cubes {
			lits = lits[:0]
			void := false
			for vi := 0; vi < c.N && !void; vi++ {
				switch c.Lit(vi) {
				case logic.LitPos:
					lits = append(lits, fan[vi])
				case logic.LitNeg:
					lits = append(lits, fan[vi]^1)
				case logic.LitNone:
					void = true
				}
			}
			if void {
				continue
			}
			dst := int32(codeTmp)
			if cubes == 0 {
				dst = out
			}
			t := s.conj(lits, dst)
			switch cubes {
			case 0:
				first = t
			case 1:
				s.ops = append(s.ops, op{out ^ 1, first ^ 1, t ^ 1})
			default:
				s.ops = append(s.ops, op{out ^ 1, out ^ 1, t ^ 1})
			}
			cubes++
		}
		switch {
		case cubes == 0:
			s.ops = append(s.ops, op{out, codeFalse, codeFalse})
		case cubes == 1 && first != out:
			s.ops = append(s.ops, op{out, first, first})
		}
	}
	for _, l := range n.Latches {
		if l.Driver == nil {
			return nil, fmt.Errorf("bitsim: latch %s has no driver", l.Name)
		}
		d, ok := built(l.Driver)
		if !ok {
			return nil, fmt.Errorf("bitsim: latch %s driver %s is not a simulated signal", l.Name, l.Driver.Name)
		}
		s.latchDrvCode = append(s.latchDrvCode, d)
	}
	for _, p := range n.POs {
		d, ok := built(p.Driver)
		if !ok {
			return nil, fmt.Errorf("bitsim: PO %s driver %s is not a simulated signal", p.Name, p.Driver.Name)
		}
		s.poCode = append(s.poCode, d)
	}
	return s, nil
}

// conj emits the conjunction of lits as a chain of ops into dst and
// returns the code holding it: the literal itself for a one-literal cube
// and the constant 1 for the universal cube, neither costing an op.
func (s *Sim) conj(lits []int32, dst int32) int32 {
	switch len(lits) {
	case 0:
		return codeTrue
	case 1:
		return lits[0]
	}
	s.ops = append(s.ops, op{dst, lits[0], lits[1]})
	for _, l := range lits[2:] {
		s.ops = append(s.ops, op{dst, dst, l})
	}
	return dst
}

// NumPIs returns the primary input count (PI word order).
func (s *Sim) NumPIs() int { return len(s.piCode) }

// NumSignals returns the number of simulated signals (PIs, latch outputs
// and logic nodes); each costs two words per Block.
func (s *Sim) NumSignals() int { return s.nSig }

// Block is 64 lanes of simulation state for one Sim. All buffers are
// preallocated by NewBlock; Step allocates nothing.
type Block struct {
	rail []uint64 // per slot: one-plane at 2·slot, zero-plane at 2·slot+1
	nxt  []uint64 // per latch, interleaved: the snapshot for the state update
	po   []uint64 // per PO, interleaved: captured before the register update
}

// NewBlock allocates a block. Latches start at X (no bits set); call Reset
// for the declared initial state.
func (s *Sim) NewBlock() *Block {
	b := &Block{
		rail: make([]uint64, 2*(firstSlot+s.nSig)),
		nxt:  make([]uint64, 2*len(s.latchOutCode)),
		po:   make([]uint64, 2*len(s.poCode)),
	}
	b.rail[codeTrue] = ^uint64(0) // slot 0's zero-plane: the constant 0
	return b
}

// Reset sets every lane of every latch to the declared initial value.
func (s *Sim) Reset(b *Block) {
	for i, g := range s.latchOutCode {
		switch s.latchInit[i] {
		case network.V0:
			b.rail[g], b.rail[g+1] = 0, ^uint64(0)
		case network.V1:
			b.rail[g], b.rail[g+1] = ^uint64(0), 0
		default:
			b.rail[g], b.rail[g+1] = 0, 0
		}
	}
}

// PO returns primary output i's dual-rail words as observed during the
// last Step — i.e. before the register update, so a PO driven directly by
// a latch output reports the cycle's current state like the scalar path.
func (s *Sim) PO(b *Block, i int) (one, zero uint64) {
	return b.po[2*i], b.po[2*i+1]
}

// Step applies one clock cycle: it latches the PI words (dual-rail, one
// pair per PI in declaration order, NumPIs of each), runs the AND program,
// and advances the registers. 64 lanes advance per call; the caller reads
// POs afterwards.
func (s *Sim) Step(b *Block, piOne, piZero []uint64) {
	r := b.rail
	for i, g := range s.piCode {
		r[g], r[g+1] = piOne[i], piZero[i]
	}
	for _, o := range s.ops {
		a1, a0 := r[o.a], r[o.a^1]
		b1, b0 := r[o.b], r[o.b^1]
		r[o.d], r[o.d^1] = a1&b1, a0|b0
	}
	// POs observe the pre-edge values: capture them before the registers
	// advance (a PO driven by a latch output reports the current state).
	for i, g := range s.poCode {
		b.po[2*i], b.po[2*i+1] = r[g], r[g+1]
	}
	// Snapshot all next-state words before writing any latch output, so a
	// register chained off another register's output reads the pre-edge
	// value.
	for i, d := range s.latchDrvCode {
		b.nxt[2*i], b.nxt[2*i+1] = r[d], r[d+1]
	}
	for i, g := range s.latchOutCode {
		r[g], r[g+1] = b.nxt[2*i], b.nxt[2*i+1]
	}
}
