package retime

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/network"
)

// This file implements the atomic register moves of Section II of the
// paper (Fig. 1): forward retiming across a single-output node with initial
// state s' = f(s1..sk), and backward retiming with initial states obtained
// from a satisfying assignment of f (Touati–Brayton). Both operate directly
// on the network so that initial states remain correct by construction.

// ForwardRetimable reports whether node v can absorb one register from each
// fanin edge: every fanin must be a register output ("a node is
// forward-retimable if it contains only registers as its fanins").
func ForwardRetimable(n *network.Network, v *network.Node) bool {
	if v.Kind != network.KindLogic || len(v.Fanins) == 0 {
		return false
	}
	for _, fi := range v.Fanins {
		if fi.Kind != network.KindLatchOut {
			return false
		}
	}
	return true
}

// Forward performs one atomic forward move across v: registers move from
// all fanins to the output. The new register's initial value is
// f(s1,…,sk) evaluated 3-valued over the consumed registers' initial
// values. Returns the new latch. Registers that become dangling are
// removed.
func Forward(n *network.Network, v *network.Node) (*network.Latch, error) {
	if !ForwardRetimable(n, v) {
		return nil, fmt.Errorf("retime: %s is not forward-retimable", v.Name)
	}
	latches := make([]*network.Latch, len(v.Fanins))
	drivers := make([]*network.Node, len(v.Fanins))
	inits := make([]network.Value, len(v.Fanins))
	for i, fi := range v.Fanins {
		l := n.LatchOfOutput(fi)
		if l == nil {
			return nil, fmt.Errorf("retime: fanin %s has no latch", fi.Name)
		}
		latches[i] = l
		drivers[i] = l.Driver
		inits[i] = l.Init
	}
	newInit := eval3(v.Func, inits)
	// Create the output register first so that a register on a self-loop
	// edge (v → latch → v) can be rewired to the new register instead of
	// collapsing into a combinational cycle.
	nl := n.AddLatch(v.Name+"_q", v, newInit)
	for i, d := range drivers {
		if d == v {
			drivers[i] = nl.Output
		}
	}
	// Rewire v to read the pre-register signals.
	n.SetFunction(v, drivers, v.Func.Clone())
	for _, c := range n.LogicFanouts(v) {
		if c != nl.Output {
			n.ReplaceFanin(c, v, nl.Output)
		}
	}
	for _, l := range n.Latches {
		if l != nl && l.Driver == v {
			l.Driver = nl.Output
		}
	}
	for _, p := range n.POs {
		if p.Driver == v {
			p.Driver = nl.Output
		}
	}
	// Sweep consumed registers that now feed nothing.
	for _, l := range latches {
		if n.NumFanouts(l.Output) == 0 {
			n.RemoveLatch(l)
		}
	}
	return nl, nil
}

// BackwardRetimable reports whether node v can push one register from its
// output to each fanin: every consumer must be a register data input, and
// the registers' initial values must admit a consistent preimage through f.
func BackwardRetimable(n *network.Network, v *network.Node) bool {
	_, _, err := backwardPlan(n, v)
	return err == nil
}

// backwardPlan validates the move and computes the consumer registers and
// the fanin initial-value assignment.
func backwardPlan(n *network.Network, v *network.Node) ([]*network.Latch, []network.Value, error) {
	if v.Kind != network.KindLogic {
		return nil, nil, fmt.Errorf("retime: %s is not a logic node", v.Name)
	}
	if len(n.LogicFanouts(v)) > 0 || len(n.POsDrivenBy(v)) > 0 {
		return nil, nil, fmt.Errorf("retime: %s has non-register consumers", v.Name)
	}
	outs := n.LatchesDrivenBy(v)
	if len(outs) == 0 {
		return nil, nil, fmt.Errorf("retime: %s drives no registers", v.Name)
	}
	// All defined initial values must agree (Fig. 2: backward retiming
	// across a stem fails on differing initial values).
	target := network.VX
	for _, l := range outs {
		if l.Init == network.VX {
			continue
		}
		if target != network.VX && target != l.Init {
			return nil, nil, fmt.Errorf("retime: registers after %s have conflicting initial values", v.Name)
		}
		target = l.Init
	}
	inits := make([]network.Value, len(v.Fanins))
	switch target {
	case network.VX:
		for i := range inits {
			inits[i] = network.VX
		}
	case network.V1:
		cube, ok := pickAssignment(v.Func)
		if !ok {
			return nil, nil, fmt.Errorf("retime: %s cannot produce initial value 1", v.Name)
		}
		copy(inits, cube)
	case network.V0:
		cube, ok := pickAssignment(v.Func.Complement())
		if !ok {
			return nil, nil, fmt.Errorf("retime: %s cannot produce initial value 0", v.Name)
		}
		copy(inits, cube)
	}
	return outs, inits, nil
}

// pickAssignment returns a complete satisfying assignment of f (unbound
// cube positions default to 0), or ok=false if f is unsatisfiable.
func pickAssignment(f *logic.Cover) ([]network.Value, bool) {
	for _, c := range f.Cubes {
		if c.IsEmpty() {
			continue
		}
		out := make([]network.Value, f.N)
		for v := 0; v < f.N; v++ {
			if c.Lit(v) == logic.LitPos {
				out[v] = network.V1
			} else {
				out[v] = network.V0
			}
		}
		return out, true
	}
	if f.N == 0 && len(f.Cubes) > 0 {
		return []network.Value{}, true
	}
	return nil, false
}

// Backward performs one atomic backward move across v: the registers on
// v's output (which must be v's only consumers) are replaced by one
// register on each fanin, with initial values from a preimage of the
// common output initial value. Returns the new latches.
func Backward(n *network.Network, v *network.Node) ([]*network.Latch, error) {
	outs, inits, err := backwardPlan(n, v)
	if err != nil {
		return nil, err
	}
	newLatches := make([]*network.Latch, len(v.Fanins))
	newFanins := make([]*network.Node, len(v.Fanins))
	for i, fi := range v.Fanins {
		nl := n.AddLatch(fmt.Sprintf("%s_b%d", v.Name, i), fi, inits[i])
		newLatches[i] = nl
		newFanins[i] = nl.Output
	}
	n.SetFunction(v, newFanins, v.Func.Clone())
	for _, l := range outs {
		n.RedirectConsumers(l.Output, v)
		n.RemoveLatch(l)
	}
	return newLatches, nil
}

// eval3 evaluates a cover on ternary inputs (conservative semantics),
// used for forward-move initial states.
func eval3(f *logic.Cover, in []network.Value) network.Value {
	res := network.V0
	for _, c := range f.Cubes {
		cv := network.V1
		for v := 0; v < c.N; v++ {
			switch c.Lit(v) {
			case logic.LitNeg:
				if in[v] == network.V1 {
					cv = network.V0
				} else if in[v] == network.VX && cv != network.V0 {
					cv = network.VX
				}
			case logic.LitPos:
				if in[v] == network.V0 {
					cv = network.V0
				} else if in[v] == network.VX && cv != network.V0 {
					cv = network.VX
				}
			case logic.LitNone:
				cv = network.V0
			}
			if cv == network.V0 {
				break
			}
		}
		if cv == network.V1 {
			return network.V1
		}
		if cv == network.VX {
			res = network.VX
		}
	}
	return res
}

// SplitFanoutStem forward-retimes register l across its fanout stem
// (Fig. 2): the single register becomes one register per consumer, all
// with l's initial value, establishing the retiming-induced equivalence
// R1 ≡ R2 ≡ … . Returns the new latches in consumer order. It is the
// caller's responsibility to record the induced equivalence (internal/core
// does). A register with fewer than two consumers is returned unchanged.
func SplitFanoutStem(n *network.Network, l *network.Latch) ([]*network.Latch, error) {
	out := l.Output
	logicConsumers := n.LogicFanouts(out)
	latchConsumers := n.LatchesDrivenBy(out)
	poConsumers := n.POsDrivenBy(out)
	total := len(logicConsumers) + len(latchConsumers) + len(poConsumers)
	if total < 2 {
		return []*network.Latch{l}, nil
	}
	var created []*network.Latch
	idx := 0
	newLatch := func() *network.Latch {
		nl := n.AddLatch(fmt.Sprintf("%s_s%d", l.Name, idx), l.Driver, l.Init)
		idx++
		created = append(created, nl)
		return nl
	}
	for _, c := range logicConsumers {
		n.ReplaceFanin(c, out, newLatch().Output)
	}
	for _, lc := range latchConsumers {
		lc.Driver = newLatch().Output
	}
	for _, p := range poConsumers {
		p.Driver = newLatch().Output
	}
	n.RemoveLatch(l)
	return created, nil
}

// RemoveConstantRegisters eliminates registers whose data input is a
// constant matching their initial value: such a register holds that
// constant in every cycle, so its consumers can read the constant
// directly. This is one of the latch-count minimization moves the paper's
// Section V points to beyond retiming itself ("other latch count
// minimization techniques can also be used"). Returns the number removed.
func RemoveConstantRegisters(n *network.Network) int {
	removed := 0
	for {
		progress := false
		for _, l := range append([]*network.Latch(nil), n.Latches...) {
			d := l.Driver
			if d == nil || d.Kind != network.KindLogic || len(d.Fanins) != 0 {
				continue
			}
			var v network.Value
			if d.Func.IsZeroFunction() {
				v = network.V0
			} else if d.Func.HasFullCube() {
				v = network.V1
			} else {
				continue
			}
			if l.Init != v {
				continue // the cycle-0 value differs; removal is unsafe
			}
			n.RedirectConsumers(l.Output, d)
			n.RemoveLatch(l)
			removed++
			progress = true
		}
		if !progress {
			return removed
		}
	}
}

// MergeSiblingRegisters backward-retimes across fanout stems wherever
// legal: registers sharing the same driver and the same initial value are
// merged into one (the Fig. 6 post-pass move). Returns the number of
// registers eliminated.
func MergeSiblingRegisters(n *network.Network) int {
	merged := 0
	for {
		progress := false
		// byDriver[id] holds the latches driven by node id, in latch order.
		byDriver := make([][]*network.Latch, n.NumIDs())
		for _, l := range n.Latches {
			byDriver[l.Driver.ID] = append(byDriver[l.Driver.ID], l)
		}
		for _, group := range byDriver {
			if len(group) < 2 {
				continue
			}
			// Partition by initial value; merge within each class.
			byInit := map[network.Value][]*network.Latch{}
			for _, l := range group {
				byInit[l.Init] = append(byInit[l.Init], l)
			}
			for _, cls := range byInit {
				if len(cls) < 2 {
					continue
				}
				keep := cls[0]
				for _, l := range cls[1:] {
					n.RedirectConsumers(l.Output, keep.Output)
					n.RemoveLatch(l)
					merged++
					progress = true
				}
			}
		}
		if !progress {
			return merged
		}
	}
}
