// Package sim provides two-valued and three-valued (0/1/X) simulation of
// sequential networks, one vector per pass, and FirstDivergence, the
// one-stream reference of the bit-parallel spot check with the paper's
// delayed-replacement semantics. It is a test oracle: no production code
// imports it. The tests of the bit-parallel engine (internal/bitsim), the
// flows, the substrates and the parsers check their results against this
// simulator.
package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
)

// Simulator evaluates one network. It caches the topological order.
type Simulator struct {
	N     *network.Network
	order []*network.Node
	state []network.Value // current latch values, indexed like N.Latches
}

// New creates a simulator positioned at the network's initial state.
func New(n *network.Network) (*Simulator, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{N: n, order: order}
	s.Reset()
	return s, nil
}

// Reset returns the simulator to the declared initial state.
func (s *Simulator) Reset() {
	s.state = make([]network.Value, len(s.N.Latches))
	for i, l := range s.N.Latches {
		s.state[i] = l.Init
	}
}

// State returns a copy of the current latch values.
func (s *Simulator) State() []network.Value {
	out := make([]network.Value, len(s.state))
	copy(out, s.state)
	return out
}

// SetState overrides the current latch values.
func (s *Simulator) SetState(v []network.Value) {
	if len(v) != len(s.state) {
		panic("sim: state length mismatch")
	}
	copy(s.state, v)
}

// evalCube3 evaluates a cube under ternary values.
func evalCube3(c logic.Cube, val func(v int) network.Value) network.Value {
	res := network.V1
	for v := 0; v < c.N; v++ {
		switch c.Lit(v) {
		case logic.LitNeg:
			switch val(v) {
			case network.V1:
				return network.V0
			case network.VX:
				res = network.VX
			}
		case logic.LitPos:
			switch val(v) {
			case network.V0:
				return network.V0
			case network.VX:
				res = network.VX
			}
		case logic.LitNone:
			return network.V0
		}
	}
	return res
}

// evalCover3 evaluates a SOP cover under ternary values with the standard
// conservative (Kleene) semantics.
func evalCover3(f *logic.Cover, val func(v int) network.Value) network.Value {
	res := network.V0
	for _, c := range f.Cubes {
		switch evalCube3(c, val) {
		case network.V1:
			return network.V1
		case network.VX:
			res = network.VX
		}
	}
	return res
}

// Eval3 computes all node values for the given PI assignment and the current
// latch state, using 3-valued semantics. It returns the node-value map.
func (s *Simulator) Eval3(pi map[*network.Node]network.Value) map[*network.Node]network.Value {
	val := make(map[*network.Node]network.Value, len(s.order)+len(s.N.PIs)+len(s.N.Latches))
	for _, p := range s.N.PIs {
		v, ok := pi[p]
		if !ok {
			v = network.VX
		}
		val[p] = v
	}
	for i, l := range s.N.Latches {
		val[l.Output] = s.state[i]
	}
	for _, node := range s.order {
		f := node.Func
		fanins := node.Fanins
		val[node] = evalCover3(f, func(v int) network.Value { return val[fanins[v]] })
	}
	return val
}

// Step3 applies one clock cycle with the given PI values, returning the PO
// values observed during the cycle and advancing the latch state.
func (s *Simulator) Step3(pi map[*network.Node]network.Value) map[string]network.Value {
	val := s.Eval3(pi)
	out := make(map[string]network.Value, len(s.N.POs))
	for _, p := range s.N.POs {
		out[p.Name] = val[p.Driver]
	}
	next := make([]network.Value, len(s.N.Latches))
	for i, l := range s.N.Latches {
		next[i] = val[l.Driver]
	}
	s.state = next
	return out
}

// StepBits applies one clock cycle with two-valued PI bits in PI declaration
// order, returning PO bits in PO declaration order.
func (s *Simulator) StepBits(piBits []bool) []bool {
	if len(piBits) != len(s.N.PIs) {
		panic(fmt.Sprintf("sim: %d PI bits for %d PIs", len(piBits), len(s.N.PIs)))
	}
	pi := make(map[*network.Node]network.Value, len(piBits))
	for i, p := range s.N.PIs {
		if piBits[i] {
			pi[p] = network.V1
		} else {
			pi[p] = network.V0
		}
	}
	out := s.Step3(pi)
	bits := make([]bool, len(s.N.POs))
	for i, p := range s.N.POs {
		v := out[p.Name]
		if v == network.VX {
			panic("sim: X reached a PO under two-valued simulation")
		}
		bits[i] = v == network.V1
	}
	return bits
}

// AllDefined reports whether no latch currently holds X.
func (s *Simulator) AllDefined() bool {
	for _, v := range s.state {
		if v == network.VX {
			return false
		}
	}
	return true
}

// FirstDivergence is the one-stream reference of bitsim.RandomEquivalent.
// It drives a and b with the same PI bits for delay+cycles cycles, drawing
// each cycle's bits from next in a's PI declaration order, under
// three-valued simulation from the declared initial states; ports are
// paired by network.Pair. It returns the first post-prefix cycle and the
// index in a.POs of the first paired PO that is defined on both sides with
// different values, or cycle -1 when none differs.
func FirstDivergence(a, b *network.Network, delay, cycles int, next func() bool) (cycle, po int, err error) {
	p, err := network.Pair(a, b)
	if err != nil {
		return -1, -1, fmt.Errorf("sim: %w", err)
	}
	sa, err := New(a)
	if err != nil {
		return -1, -1, err
	}
	sb, err := New(b)
	if err != nil {
		return -1, -1, err
	}
	inA := make(map[*network.Node]network.Value, len(a.PIs))
	inB := make(map[*network.Node]network.Value, len(b.PIs))
	for c := 0; c < delay+cycles; c++ {
		for i, pi := range a.PIs {
			v := network.V0
			if next() {
				v = network.V1
			}
			inA[pi] = v
			inB[b.PIs[p.PI[i]]] = v
		}
		oa, ob := sa.Step3(inA), sb.Step3(inB)
		if c < delay {
			continue
		}
		for ia, ib := range p.PO {
			va, vb := oa[a.POs[ia].Name], ob[b.POs[ib].Name]
			if va != network.VX && vb != network.VX && va != vb {
				return c, ia, nil
			}
		}
	}
	return -1, -1, nil
}
