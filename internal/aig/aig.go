// Package aig implements an And-Inverter Graph: the scale substrate of the
// resynthesis pipeline. Where network.Network stores a sum-of-products
// cover per node — ideal for the paper's DCret simplification but capped
// by two-level minimization cost around the s5378 row — an AIG stores only
// two-input AND nodes with complemented edges, packed in a flat slice.
// Structural hashing (strash) makes node creation O(1) with free
// common-subexpression sharing, and the unit-delay level of every node is
// exact by construction, which is precisely the depth model the paper's
// critical-path machinery wants.
//
// The strash table is built on internal/ohash, an open-addressed
// power-of-two table hashed with the same mix as the BDD unique table
// (internal/bdd). Construction applies the one- and two-level
// rewriting rules (constant folding, idempotence, complement, containment,
// contradiction, subsumption) before hashing, so the graph never stores a
// node those rules can resolve to an existing literal.
//
// Sequential boundary: primary inputs and latch outputs are combinational
// input (CI) nodes; primary outputs and latch next-state functions are
// combinational output literals. Converters to and from network.Network
// live in convert.go, depth-oriented restructuring in balance.go, and the
// 4-cut rewriting engine in rewrite.go.
package aig

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/ohash"
)

// Lit is an edge reference: a node index shifted left once, with the low
// bit carrying complementation. The constant node is index 0, so False is
// the uncomplemented and True the complemented constant edge.
type Lit uint32

const (
	// False is the constant-0 literal.
	False Lit = 0
	// True is the constant-1 literal.
	True Lit = 1
)

// MkLit builds a literal from a node index and a complement flag.
func MkLit(node int32, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the literal's node index.
func (l Lit) Node() int32 { return int32(l >> 1) }

// Compl reports whether the edge is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

func (l Lit) String() string {
	if l.Compl() {
		return fmt.Sprintf("!%d", l.Node())
	}
	return fmt.Sprintf("%d", l.Node())
}

// ciMark is the fanin-0 sentinel of combinational input nodes (PIs and
// latch outputs); constMark marks the constant node 0. Neither is a valid
// literal inside a well-formed graph, so kinds need no separate array.
const (
	constMark = ^Lit(0)
	ciMark    = ^Lit(0) - 1
)

// node is one packed AIG vertex: two fanin literals for AND nodes, or a
// kind sentinel in f0 for the constant and CI nodes.
type node struct {
	f0, f1 Lit
}

// PO is a named combinational output.
type PO struct {
	Name string
	Lit  Lit
}

// Latch is an edge-triggered register: Out is its CI node presenting the
// state, Next the next-state literal.
type Latch struct {
	Name string
	Next Lit
	Out  int32 // CI node index
	Init network.Value
}

// Graph is a structurally hashed And-Inverter Graph.
type Graph struct {
	Name    string
	nodes   []node
	levels  []int32 // exact unit-delay depth per node (CIs and const: 0)
	pis     []int32
	piNames []string
	pos     []PO
	latches []Latch

	strash     *ohash.Table
	strashHits int64
	nAnds      int

	// fanoutMemo caches FanoutCounts. Derived state like this must be
	// dropped by every structural mutation — Sweep renumbers nodes, And
	// appends, SetLatchNext/AddPO change output references — or a later
	// reader silently sees counts for a graph that no longer exists.
	// invalidateDerived is the single choke point.
	fanoutMemo []int32
}

// invalidateDerived drops memoized derived state (fanout counts). Every
// mutation of nodes, outputs, or latch wiring funnels through here.
func (g *Graph) invalidateDerived() {
	g.fanoutMemo = nil
}

// FanoutCounts returns, per node, how many times it is referenced: once
// per AND fanin plus once per combinational output (PO or latch next)
// pointing at it. The slice is memoized until the next structural
// mutation; callers must not mutate it.
func (g *Graph) FanoutCounts() []int32 {
	if g.fanoutMemo != nil {
		return g.fanoutMemo
	}
	refs := make([]int32, len(g.nodes))
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if g.IsAnd(id) {
			n := &g.nodes[id]
			refs[n.f0.Node()]++
			refs[n.f1.Node()]++
		}
	}
	for _, po := range g.pos {
		refs[po.Lit.Node()]++
	}
	for _, la := range g.latches {
		refs[la.Next.Node()]++
	}
	g.fanoutMemo = refs
	return refs
}

// New creates an empty graph holding only the constant node.
func New(name string) *Graph {
	g := &Graph{Name: name}
	g.nodes = append(g.nodes, node{f0: constMark})
	g.levels = append(g.levels, 0)
	g.strash = ohash.NewTable(0, g.hashNode)
	return g
}

// hashNode rehashes a stored AND node for the strash table's growth path.
func (g *Graph) hashNode(ref int32) uint32 {
	n := &g.nodes[ref]
	return strashHash(n.f0, n.f1)
}

// strashHash is the structural key hash, via the shared ohash mix.
func strashHash(f0, f1 Lit) uint32 {
	return ohash.Mix3(uint32(f0), uint32(f1), 0x51ed270b)
}

// NumNodes returns the total node count (constant + CIs + ANDs).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumAnds returns the AND node count — the standard AIG size metric.
func (g *Graph) NumAnds() int { return g.nAnds }

// NumPIs returns the primary input count.
func (g *Graph) NumPIs() int { return len(g.pis) }

// PIs returns the PI node indices in creation order. Do not mutate.
func (g *Graph) PIs() []int32 { return g.pis }

// POs returns the primary outputs in creation order. Do not mutate.
func (g *Graph) POs() []PO { return g.pos }

// Latches returns the registers in creation order. Do not mutate the
// slice; use SetLatchNext to close feedback.
func (g *Graph) Latches() []Latch { return g.latches }

// StrashHits counts constructor calls answered by the strash table or the
// rewrite rules instead of a fresh node — the sharing the SOP substrate
// never sees.
func (g *Graph) StrashHits() int64 { return g.strashHits }

// IsCI reports whether the node is a combinational input (PI or latch out).
func (g *Graph) IsCI(id int32) bool { return g.nodes[id].f0 == ciMark }

// IsAnd reports whether the node is an AND vertex.
func (g *Graph) IsAnd(id int32) bool {
	f0 := g.nodes[id].f0
	return f0 != ciMark && f0 != constMark
}

// Fanins returns the two fanin literals of an AND node.
func (g *Graph) Fanins(id int32) (Lit, Lit) {
	if !g.IsAnd(id) {
		panic(fmt.Sprintf("aig: Fanins of non-AND node %d", id))
	}
	n := &g.nodes[id]
	return n.f0, n.f1
}

// Level returns the exact unit-delay depth of a node (ANDs: 1 + max of
// fanin levels; CIs and the constant: 0).
func (g *Graph) Level(id int32) int32 { return g.levels[id] }

// AddPI appends a primary input and returns its literal.
func (g *Graph) AddPI(name string) Lit {
	id := g.newCI()
	g.pis = append(g.pis, id)
	g.piNames = append(g.piNames, name)
	return MkLit(id, false)
}

// AddLatch appends a register with the given initial value and returns the
// literal of its output CI node. The next-state function is closed later
// with SetLatchNext (feedback cones reference latch outputs created before
// their drivers exist).
func (g *Graph) AddLatch(name string, init network.Value) Lit {
	id := g.newCI()
	g.latches = append(g.latches, Latch{Name: name, Next: False, Out: id, Init: init})
	return MkLit(id, false)
}

// SetLatchNext installs the next-state literal of latch i.
func (g *Graph) SetLatchNext(i int, next Lit) {
	g.latches[i].Next = next
	g.invalidateDerived()
}

// AddPO declares a named combinational output.
func (g *Graph) AddPO(name string, l Lit) {
	g.pos = append(g.pos, PO{Name: name, Lit: l})
	g.invalidateDerived()
}

func (g *Graph) newCI() int32 {
	id := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{f0: ciMark})
	g.levels = append(g.levels, 0)
	g.invalidateDerived()
	return id
}

// And returns a literal for the conjunction of a and b, resolving the one-
// and two-level rewrite rules first and consulting the strash table before
// creating a node. Amortized O(1).
func (g *Graph) And(a, b Lit) Lit {
	// One-level rules: constants, idempotence, complement.
	switch {
	case a == False || b == False || a == b.Not():
		g.strashHits++
		return False
	case a == True:
		g.strashHits++
		return b
	case b == True || a == b:
		g.strashHits++
		return a
	}
	// Canonical fanin order: the strash key is the ordered pair.
	if a > b {
		a, b = b, a
	}
	if r, ok := g.twoLevel(a, b); ok {
		g.strashHits++
		return r
	}
	h := strashHash(a, b)
	if id, ok := g.strash.Lookup(h, func(ref int32) bool {
		n := &g.nodes[ref]
		return n.f0 == a && n.f1 == b
	}); ok {
		g.strashHits++
		return MkLit(id, false)
	}
	id := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{f0: a, f1: b})
	lv := g.levels[a.Node()]
	if l1 := g.levels[b.Node()]; l1 > lv {
		lv = l1
	}
	g.levels = append(g.levels, lv+1)
	g.strash.Insert(h, id)
	g.nAnds++
	g.invalidateDerived()
	return MkLit(id, false)
}

// FindAnd is the read-only sibling of And: it resolves the conjunction
// through the same rewrite rules and strash lookup but never creates a
// node and never mutates the graph (no strashHits accounting, no derived-
// state invalidation). The rewrite engine's parallel decision phase uses
// it to price candidate structures against logic the graph already has;
// read-only is what makes concurrent calls safe.
func (g *Graph) FindAnd(a, b Lit) (Lit, bool) {
	switch {
	case a == False || b == False || a == b.Not():
		return False, true
	case a == True:
		return b, true
	case b == True || a == b:
		return a, true
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := g.twoLevel(a, b); ok {
		return r, true
	}
	if id, ok := g.strash.Lookup(strashHash(a, b), func(ref int32) bool {
		n := &g.nodes[ref]
		return n.f0 == a && n.f1 == b
	}); ok {
		return MkLit(id, false), true
	}
	return 0, false
}

// twoLevel resolves And(a, b) against the fanins of a's and b's AND nodes:
// containment x·(x·y) = x·y, contradiction x·(x̄·y) = 0, and subsumption
// x̄·¬(x·y) = x̄. Only rules that return an existing literal are applied —
// the constructor never builds a node to simplify one.
func (g *Graph) twoLevel(a, b Lit) (Lit, bool) {
	if r, ok := g.oneSided(a, b); ok {
		return r, ok
	}
	return g.oneSided(b, a)
}

// oneSided checks the rules keyed on other's node being an AND with fanins
// x, y against the literal l.
func (g *Graph) oneSided(l, other Lit) (Lit, bool) {
	id := other.Node()
	if !g.IsAnd(id) {
		return 0, false
	}
	x, y := g.nodes[id].f0, g.nodes[id].f1
	if !other.Compl() {
		if l == x || l == y {
			return other, true // containment: x·(x·y) = x·y
		}
		if l == x.Not() || l == y.Not() {
			return False, true // contradiction: x̄·(x·y) = 0
		}
		return 0, false
	}
	if l == x.Not() || l == y.Not() {
		return l, true // subsumption: x̄·¬(x·y) = x̄·(x̄+ȳ) = x̄
	}
	return 0, false
}

// Or returns a literal for the disjunction, via De Morgan.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for the exclusive or (two AND levels).
func (g *Graph) Xor(a, b Lit) Lit {
	return g.And(g.And(a, b.Not()).Not(), g.And(a.Not(), b).Not()).Not()
}

// Mux returns s ? t : e.
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.And(g.And(s, t).Not(), g.And(s.Not(), e).Not()).Not()
}

// Depth returns the maximum unit-delay level over all combinational
// outputs (POs and latch next-state literals) — the exact critical-path
// length of the graph.
func (g *Graph) Depth() int32 {
	var d int32
	for _, po := range g.pos {
		if l := g.levels[po.Lit.Node()]; l > d {
			d = l
		}
	}
	for _, la := range g.latches {
		if l := g.levels[la.Next.Node()]; l > d {
			d = l
		}
	}
	return d
}

// outputs returns every combinational output literal (POs then latch next
// states), the roots for traversals.
func (g *Graph) outputs() []Lit {
	out := make([]Lit, 0, len(g.pos)+len(g.latches))
	for _, po := range g.pos {
		out = append(out, po.Lit)
	}
	for _, la := range g.latches {
		out = append(out, la.Next)
	}
	return out
}

// reqInf marks a node no output cone requires (dead logic) in the
// required-time analysis.
const reqInf = int32(1) << 30

// requiredTimes runs the exact unit-delay required-time analysis: per
// node, the latest level at which it may produce its value without
// stretching the graph's critical path. Unreachable nodes hold reqInf.
// A node is critical iff required == level (zero slack).
func (g *Graph) requiredTimes() []int32 {
	depth := g.Depth()
	req := make([]int32, len(g.nodes))
	for i := range req {
		req[i] = reqInf
	}
	for _, o := range g.outputs() {
		// Every output is required at the graph depth: an output whose cone
		// is shallower has positive slack throughout.
		if req[o.Node()] > depth {
			req[o.Node()] = depth
		}
	}
	// Nodes are appended in topological order (fanins precede the node), so
	// one descending sweep propagates required times exactly.
	for id := int32(len(g.nodes)) - 1; id > 0; id-- {
		if !g.IsAnd(id) || req[id] == reqInf {
			continue
		}
		r := req[id] - 1
		if f := g.nodes[id].f0.Node(); req[f] > r {
			req[f] = r
		}
		if f := g.nodes[id].f1.Node(); req[f] > r {
			req[f] = r
		}
	}
	return req
}

// Sweep removes AND nodes unreachable from any combinational output,
// compacting the node array and rebuilding the strash table. CI nodes are
// interface and always kept. Existing Lit values are invalidated; the
// graph's own PO/latch references are rewritten. Returns the number of
// nodes removed.
func (g *Graph) Sweep() int {
	live := make([]bool, len(g.nodes))
	live[0] = true
	var mark func(id int32)
	mark = func(id int32) {
		if live[id] {
			return
		}
		live[id] = true
		if g.IsAnd(id) {
			mark(g.nodes[id].f0.Node())
			mark(g.nodes[id].f1.Node())
		}
	}
	for _, id := range g.pis {
		live[id] = true
	}
	for _, la := range g.latches {
		live[la.Out] = true
	}
	for _, o := range g.outputs() {
		mark(o.Node())
	}
	remap := make([]int32, len(g.nodes))
	kept := 0
	removed := 0
	for id := range g.nodes {
		if live[id] {
			remap[id] = int32(kept)
			kept++
		} else {
			remap[id] = -1
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	relit := func(l Lit) Lit { return MkLit(remap[l.Node()], l.Compl()) }
	nodes := make([]node, 0, kept)
	levels := make([]int32, 0, kept)
	nAnds := 0
	for id, n := range g.nodes {
		if !live[id] {
			continue
		}
		if g.IsAnd(int32(id)) {
			n = node{f0: relit(n.f0), f1: relit(n.f1)}
			nAnds++
		}
		nodes = append(nodes, n)
		levels = append(levels, g.levels[id])
	}
	g.nodes = nodes
	g.levels = levels
	g.nAnds = nAnds
	for i := range g.pis {
		g.pis[i] = remap[g.pis[i]]
	}
	for i := range g.latches {
		g.latches[i].Out = remap[g.latches[i].Out]
		g.latches[i].Next = relit(g.latches[i].Next)
	}
	for i := range g.pos {
		g.pos[i].Lit = relit(g.pos[i].Lit)
	}
	g.strash.Reset()
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if g.IsAnd(id) {
			n := &g.nodes[id]
			g.strash.Insert(strashHash(n.f0, n.f1), id)
		}
	}
	g.invalidateDerived()
	return removed
}

// Check validates the structural invariants: fanins precede their node
// (topological storage), levels are exact, latch next literals are set,
// and the strash table holds every AND exactly once.
func (g *Graph) Check() error {
	if len(g.nodes) == 0 || g.nodes[0].f0 != constMark {
		return fmt.Errorf("aig: node 0 is not the constant")
	}
	ands := 0
	for id := int32(1); id < int32(len(g.nodes)); id++ {
		if !g.IsAnd(id) {
			if g.levels[id] != 0 {
				return fmt.Errorf("aig: CI node %d has level %d", id, g.levels[id])
			}
			continue
		}
		ands++
		n := &g.nodes[id]
		if n.f0.Node() >= id || n.f1.Node() >= id {
			return fmt.Errorf("aig: node %d references a later node", id)
		}
		if n.f0 > n.f1 {
			return fmt.Errorf("aig: node %d fanins not in canonical order", id)
		}
		want := g.levels[n.f0.Node()]
		if l := g.levels[n.f1.Node()]; l > want {
			want = l
		}
		if g.levels[id] != want+1 {
			return fmt.Errorf("aig: node %d level %d, want %d", id, g.levels[id], want+1)
		}
		if _, ok := g.strash.Lookup(strashHash(n.f0, n.f1), func(ref int32) bool {
			return ref == id
		}); !ok {
			return fmt.Errorf("aig: node %d missing from the strash table", id)
		}
	}
	if ands != g.nAnds {
		return fmt.Errorf("aig: nAnds %d, counted %d", g.nAnds, ands)
	}
	for i, la := range g.latches {
		if la.Next.Node() >= int32(len(g.nodes)) {
			return fmt.Errorf("aig: latch %d next out of range", i)
		}
	}
	for i, po := range g.pos {
		if po.Lit.Node() >= int32(len(g.nodes)) {
			return fmt.Errorf("aig: PO %d literal out of range", i)
		}
	}
	return nil
}
