package algebraic

import (
	"context"
	"sort"

	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

// DecomposeBalanced rewrites every logic node into a network of inverters
// and two-input AND/OR gates, building delay-balanced trees that combine
// early-arriving operands first (the speed_up/balance step of a delay
// script, and the subject-graph preparation for technology mapping).
func DecomposeBalanced(n *network.Network) error {
	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	// Per-node state, indexed by Node.ID. Only this pass adds nodes, and
	// newNode appends each one's entries as AddLogic numbers it next.
	// Sources keep arrival 0.
	arrival := make([]float64, n.NumIDs())
	invOf := make([]*network.Node, n.NumIDs()) // the shared inverter of a node
	newNode := func(name string, fanins []*network.Node, f *logic.Cover, arr float64) *network.Node {
		arrival, invOf = append(arrival, arr), append(invOf, nil)
		return n.AddLogic(name, fanins, f.Clone())
	}
	inv := logic.MustParseCover(1, "0")
	and := logic.MustParseCover(2, "11")
	or := logic.MustParseCover(2, "1-", "-1")
	// Shared inverters, one per inverted source, created on demand.
	getInv := func(src *network.Node) *network.Node {
		if invOf[src.ID] == nil {
			iv := newNode(src.Name+"_not", []*network.Node{src}, inv, arrival[src.ID]+1)
			invOf[src.ID] = iv
		}
		return invOf[src.ID]
	}
	type operand struct {
		node *network.Node
		arr  float64
	}
	// tree combines operands with the given 2-input function, pairing the
	// earliest arrivals first (Huffman-style balancing).
	tree := func(ops []operand, f *logic.Cover) operand {
		for len(ops) > 1 {
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].arr < ops[j].arr })
			a, b := ops[0], ops[1]
			na := max(a.arr, b.arr) + 1
			op := operand{newNode("", []*network.Node{a.node, b.node}, f, na), na}
			ops = append([]operand{op}, ops[2:]...)
		}
		return ops[0]
	}

	for _, v := range order {
		if len(v.Func.Cubes) == 0 {
			// Constant 0: keep as-is (zero-fanin node).
			if len(v.Fanins) > 0 {
				n.SetFunction(v, nil, logic.Zero(0))
			}
			arrival[v.ID] = 0
			continue
		}
		if v.Func.HasFullCube() {
			n.SetFunction(v, nil, logic.One(0))
			arrival[v.ID] = 0
			continue
		}
		// Inverters and buffers pass through unchanged.
		if isInvOrBuf(v.Func) {
			a := 0.0
			for _, fi := range v.Fanins {
				a = max(a, arrival[fi.ID])
			}
			arrival[v.ID] = a + 1
			continue
		}
		var cubeRoots []operand
		for _, c := range v.Func.Cubes {
			var lits []operand
			for pin := 0; pin < c.N; pin++ {
				fi := v.Fanins[pin]
				switch c.Lit(pin) {
				case logic.LitPos:
					lits = append(lits, operand{fi, arrival[fi.ID]})
				case logic.LitNeg:
					iv := getInv(fi)
					lits = append(lits, operand{iv, arrival[iv.ID]})
				}
			}
			if len(lits) == 0 {
				continue // full cube handled above; defensive
			}
			cubeRoots = append(cubeRoots, tree(lits, and))
		}
		root := tree(cubeRoots, or)
		// Splice the decomposition in place of v: keep v as a buffer so
		// external references (name, PO drivers) stay valid, then let the
		// simplifier absorb it — or rewire consumers directly.
		if root.node != v {
			n.RedirectConsumers(v, root.node)
			if n.NumFanouts(v) == 0 {
				n.RemoveDeadNode(v)
			}
		}
		arrival[root.node.ID] = root.arr
	}
	n.Sweep()
	return nil
}

// isInvOrBuf reports whether a cover is a single-literal function (the
// only shapes the decomposition leaves untouched; everything else becomes
// AND2/OR2/INV so the mapper's base case always matches).
func isInvOrBuf(f *logic.Cover) bool {
	return len(f.Cubes) == 1 && f.Cubes[0].CountLits() == 1
}

// OptimizeDelay is the technology-independent delay script used by all
// three evaluation flows before mapping: sweep, simplify, eliminate small
// nodes, extract common divisors, then decompose into balanced two-input
// trees (the script.delay analogue).
//
// It records an "algebraic.optimize" span on tr with one child step span
// per script pass and counters for nodes simplified/eliminated, kernels
// extracted, and literals saved. ctx is checked between script passes and
// once per candidate node inside eliminate; exceeding the deadline returns
// a typed guard budget error with the network left in a valid
// intermediate state.
func OptimizeDelay(ctx context.Context, n *network.Network, tr *obs.Tracer) error {
	sp := tr.Begin("algebraic.optimize")
	defer sp.End()
	litsIn := n.NumLits()
	simplified, eliminated, kernels := 0, 0, 0
	step := func(name string, f func() error) error {
		if cerr := guard.Check(ctx, "algebraic.optimize"); cerr != nil {
			return cerr
		}
		s := tr.Begin(name)
		err := f()
		s.End()
		return err
	}
	simplify := func() error { simplified += SimplifyNodes(n); return nil }
	for _, st := range []struct {
		name string
		f    func() error
	}{
		{"sweep", func() error { n.Sweep(); n.TrimAllFanins(); return nil }},
		{"simplify", simplify},
		{"eliminate", func() (err error) { eliminated, err = Eliminate(ctx, n, 0); return err }},
		{"simplify", simplify},
		{"kernels", func() error { kernels = ExtractKernels(n, 64); return nil }},
		{"simplify", simplify},
	} {
		if err := step(st.name, st.f); err != nil {
			return err
		}
	}
	if cerr := guard.Check(ctx, "algebraic.optimize"); cerr != nil {
		return cerr
	}
	ds := tr.Begin("decompose")
	err := DecomposeBalanced(n)
	ds.End()
	if err != nil {
		return err
	}
	n.Sweep()
	sp.Add("algebraic_nodes_simplified", int64(simplified))
	sp.Add("algebraic_nodes_eliminated", int64(eliminated))
	sp.Add("algebraic_kernels_extracted", int64(kernels))
	if d := litsIn - n.NumLits(); d > 0 {
		sp.Add("lits_saved", int64(d))
	}
	return n.Check()
}
