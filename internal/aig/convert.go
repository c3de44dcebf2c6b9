package aig

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/network"
)

// This file implements the lossless converters between the SOP network
// substrate and the AIG. FromNetwork factors every node's sum-of-products
// cover into a balanced AND/OR tree (complemented edges absorb the
// inversions, strash recovers sharing across cubes and nodes);
// ToSubjectNetwork lowers every AND vertex to a positive two-input SOP
// node, with one shared inverter per complemented node and one constant
// node per constant value. Round-tripping preserves the PI/PO/latch interface and
// the sequential behaviour exactly (fuzz-tested against bitsim in
// convert_test.go).

// FromNetwork converts a Boolean network into a structurally hashed AIG.
// PIs, POs and latches keep their names and order; every logic node's SOP
// cover is factored cube by cube.
func FromNetwork(n *network.Network) (*Graph, error) {
	g := New(n.Name)
	lits := newNodeLits(n)
	for _, pi := range n.PIs {
		lits[pi.ID] = g.AddPI(pi.Name)
	}
	for _, l := range n.Latches {
		lits[l.Output.ID] = g.AddLatch(l.Name, l.Init)
	}
	next, outs, err := g.buildLogic(n, lits)
	if err != nil {
		return nil, fmt.Errorf("aig: FromNetwork: %w", err)
	}
	for i, po := range n.POs {
		g.AddPO(po.Name, outs[i])
	}
	for i, l := range next {
		g.SetLatchNext(i, l)
	}
	return g, nil
}

// nodeLits maps a network's Node.IDs to their literals; noLit marks a node
// not built yet.
type nodeLits []Lit

const noLit = ^Lit(0)

func newNodeLits(n *network.Network) nodeLits {
	lits := make(nodeLits, n.NumIDs())
	for i := range lits {
		lits[i] = noLit
	}
	return lits
}

func (m nodeLits) get(v *network.Node) (Lit, error) {
	if v == nil || v.ID >= len(m) || m[v.ID] == noLit {
		return 0, fmt.Errorf("%v not built", v)
	}
	return m[v.ID], nil
}

// buildLogic factors every logic node of n into g in topological order,
// extending lits (which must already map every PI and latch output), and
// returns the literals of n's latch drivers and of its POs.
func (g *Graph) buildLogic(n *network.Network, lits nodeLits) (next, outs []Lit, err error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	var fanins []Lit
	for _, v := range order {
		fanins = fanins[:0]
		for _, fi := range v.Fanins {
			fl, err := lits.get(fi)
			if err != nil {
				return nil, nil, fmt.Errorf("fanin of %s: %w", v.Name, err)
			}
			fanins = append(fanins, fl)
		}
		lits[v.ID] = g.cover(v.Func, fanins)
	}
	for _, l := range n.Latches {
		d, err := lits.get(l.Driver)
		if err != nil {
			return nil, nil, fmt.Errorf("driver of latch %s: %w", l.Name, err)
		}
		next = append(next, d)
	}
	for _, po := range n.POs {
		d, err := lits.get(po.Driver)
		if err != nil {
			return nil, nil, fmt.Errorf("driver of PO %s: %w", po.Name, err)
		}
		outs = append(outs, d)
	}
	return next, outs, nil
}

// ProductPO pairs the two literals of one name-matched primary output in
// the joint graph built by FromProduct.
type ProductPO struct {
	Name string
	A, B Lit
}

// FromProduct builds one structurally hashed AIG containing both machines
// over shared primary inputs, with the ports paired by network.Pair — the
// pairing every equivalence engine uses. a's latches come first, then
// b's: graph latch index i < len(a.Latches) is a's latch i and index
// len(a.Latches)+j is b's latch j. Each PO pair is returned as a literal
// pair and also added as graph POs "a/<name>" and "b/<name>" so both cones
// stay alive.
//
// Strashing across the two halves is deliberate: structurally identical
// cones collapse onto one node, which is exactly what makes the product
// cheap to sweep when b is a resynthesized version of a.
func FromProduct(a, b *network.Network) (*Graph, []ProductPO, error) {
	p, err := network.Pair(a, b)
	if err != nil {
		return nil, nil, fmt.Errorf("aig: FromProduct: %w", err)
	}
	g := New(a.Name + "*" + b.Name)
	litsA, litsB := newNodeLits(a), newNodeLits(b)
	for i, pi := range a.PIs {
		litsA[pi.ID] = g.AddPI(pi.Name)
		litsB[b.PIs[p.PI[i]].ID] = litsA[pi.ID]
	}
	for _, l := range a.Latches {
		litsA[l.Output.ID] = g.AddLatch("a/"+l.Name, l.Init)
	}
	for _, l := range b.Latches {
		litsB[l.Output.ID] = g.AddLatch("b/"+l.Name, l.Init)
	}
	nextA, outsA, err := g.buildLogic(a, litsA)
	if err != nil {
		return nil, nil, fmt.Errorf("aig: FromProduct: %s: %w", a.Name, err)
	}
	nextB, outsB, err := g.buildLogic(b, litsB)
	if err != nil {
		return nil, nil, fmt.Errorf("aig: FromProduct: %s: %w", b.Name, err)
	}
	for i, l := range append(nextA, nextB...) {
		g.SetLatchNext(i, l)
	}
	var pairs []ProductPO
	for i, pa := range a.POs {
		la, lb := outsA[i], outsB[p.PO[i]]
		g.AddPO("a/"+pa.Name, la)
		g.AddPO("b/"+pa.Name, lb)
		pairs = append(pairs, ProductPO{Name: pa.Name, A: la, B: lb})
	}
	return g, pairs, nil
}

// cover factors a SOP cover over the given fanin literals: each cube is a
// balanced conjunction of its literals, the cover a balanced disjunction
// of its cubes. The zero-cube cover is constant 0; a universal cube makes
// the result constant 1.
func (g *Graph) cover(f *logic.Cover, fanins []Lit) Lit {
	terms := make([]Lit, 0, len(f.Cubes))
	for _, c := range f.Cubes {
		var cl []Lit
		contradictory := false
		for v := 0; v < f.N; v++ {
			switch c.Lit(v) {
			case logic.LitPos:
				cl = append(cl, fanins[v])
			case logic.LitNeg:
				cl = append(cl, fanins[v].Not())
			case logic.LitNone:
				contradictory = true
			}
		}
		if contradictory {
			continue
		}
		terms = append(terms, g.reduce(cl, g.And, True))
	}
	ors := g.reduce(terms, g.Or, False)
	return ors
}

// reduce combines terms with op into a depth-balanced tree: at every step
// the two shallowest intermediate results merge first (Huffman order), so
// the result's level is optimal for the given leaves. identity is returned
// for an empty term list.
func (g *Graph) reduce(terms []Lit, op func(a, b Lit) Lit, identity Lit) Lit {
	switch len(terms) {
	case 0:
		return identity
	case 1:
		return terms[0]
	}
	work := append([]Lit(nil), terms...)
	for len(work) > 1 {
		// Selection by level keeps the tree balanced; a stable sort keeps
		// the combine order (and thus the node numbering) deterministic.
		sort.SliceStable(work, func(i, j int) bool {
			return g.levels[work[i].Node()] < g.levels[work[j].Node()]
		})
		work = append(work[2:], op(work[0], work[1]))
	}
	return work[0]
}

// ToSubjectNetwork lowers the AIG into a mapper-ready subject graph:
// positive two-input AND nodes only, with every complemented edge
// materialized as a shared inverter node — the node shapes the genlib
// matcher and algebraic.DecomposeBalanced agree on. The PI/PO/latch
// interface keeps names, order and initial values.
func (g *Graph) ToSubjectNetwork() (*network.Network, error) {
	n := network.New(g.Name)
	nodeOf := make([]*network.Node, len(g.nodes))
	for i, id := range g.pis {
		nodeOf[id] = n.AddPI(g.piNames[i])
	}
	lats := make([]*network.Latch, len(g.latches))
	for i, la := range g.latches {
		lats[i] = n.AddLatch(la.Name, nil, la.Init)
		nodeOf[la.Out] = lats[i].Output
	}
	// One shared inverter per complemented node, one node per constant.
	invOf := make(map[int32]*network.Node)
	consts := make(map[bool]*network.Node)
	edge := func(l Lit) *network.Node {
		if l.Node() == 0 {
			one := l == True
			if d, ok := consts[one]; ok {
				return d
			}
			d := n.AddConst(fmt.Sprintf("const%d", l&1), one)
			consts[one] = d
			return d
		}
		base := nodeOf[l.Node()]
		if !l.Compl() {
			return base
		}
		if d, ok := invOf[l.Node()]; ok {
			return d
		}
		d := n.AddLogic(fmt.Sprintf("inv%d", l.Node()),
			[]*network.Node{base}, logic.MustParseCover(1, "0"))
		invOf[l.Node()] = d
		return d
	}
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.nodes[id].f0, g.nodes[id].f1
		if nodeOf[f0.Node()] == nil || nodeOf[f1.Node()] == nil {
			return nil, fmt.Errorf("aig: ToSubjectNetwork: node %d fanin not built", id)
		}
		nodeOf[id] = n.AddLogic(fmt.Sprintf("a%d", id),
			[]*network.Node{edge(f0), edge(f1)}, logic.MustParseCover(2, "11"))
	}
	for _, po := range g.pos {
		n.AddPO(po.Name, edge(po.Lit))
	}
	for i, la := range g.latches {
		lats[i].Driver = edge(la.Next)
	}
	if err := n.Check(); err != nil {
		return nil, fmt.Errorf("aig: ToSubjectNetwork produced an invalid network: %w", err)
	}
	return n, nil
}
