// Package mapper implements delay-oriented technology mapping of a
// two-input decomposed subject network onto a genlib library, using
// 4-feasible cut enumeration and dynamic programming over arrival times
// (the "mapped to produce minimum delay circuits" step of the paper's
// experimental flows). The result is a new network whose logic nodes carry
// bound-gate annotations whose pin delays timing.PinDelay charges.
package mapper

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cut"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/obs"
)

const (
	maxCutsPerNode = 16
	// cutSetSlots is a power of two at least four times the most cuts one
	// node can merge (maxCutsPerNode squared).
	cutSetSlots = 1024
)

// mcut is the mapper's cut: a sorted set of at most cut.MaxLeaves leaf
// node IDs with the truth table of its root over them. It holds no
// pointers, so the cut arena costs the garbage collector nothing. sig has
// bit(id) set for every leaf; isig has bit(id) set for every node of the
// cone's interior (the root down to, but not including, the leaves) and
// possibly more, so a trivial cut has isig 0.
type mcut struct {
	leaves    cut.Leaves
	sig, isig uint64
	tt        uint16
	n         uint8
}

// bit is a node ID's signature bit.
func bit(id int32) uint64 { return 1 << (uint32(id) & 63) }

func trivialCut(id int32) mcut {
	return mcut{leaves: cut.Leaves{id}, n: 1, sig: bit(id), tt: cut.Var[0]}
}

// sigAt is the signature of c's leaves at the positions set in mask,
// exact where c.sig &^ a.sig would drop a leaf whose bit collides.
func sigAt(c *mcut, mask uint8) (sig uint64) {
	for i, l := range c.leaves[:c.n] {
		if mask>>i&1 != 0 {
			sig |= bit(l)
		}
	}
	return sig
}

// apply evaluates a local table on the tables of its len(in) fanins.
func apply(local uint16, in ...uint16) uint16 {
	var out uint16
	for m := 0; m < 1<<len(in); m++ {
		if local>>m&1 == 0 {
			continue
		}
		t := uint16(0xFFFF)
		for i, x := range in {
			if m>>i&1 == 0 {
				x = ^x
			}
			t &= x
		}
		out |= t
	}
	return out
}

// coneEval computes cut truth tables by evaluating the root's cone down to
// the cut's leaves and no further: a leaf is a free variable even where
// other leaves compute it (DESIGN.md §"Genlib mapper"). memo[id] is node
// id's table over the current cut while stamp[id] == epoch, so no
// evaluation has to clear the arrays.
type coneEval struct {
	local []uint16 // node ID -> table over its fanins, for logic nodes of ≤ 4 fanins
	stamp []uint32
	memo  []uint16
	epoch uint32
}

// tt evaluates the truth table of v over the leaves of c; false means the
// cone escapes the cut.
func (e *coneEval) tt(v *network.Node, c *mcut) (uint16, bool) {
	e.epoch++
	for i, l := range c.leaves[:c.n] {
		e.stamp[l], e.memo[l] = e.epoch, cut.Var[i]
	}
	return e.eval(v)
}

func (e *coneEval) eval(x *network.Node) (uint16, bool) {
	if e.stamp[x.ID] == e.epoch {
		return e.memo[x.ID], true
	}
	// A node of more than cut.MaxLeaves fanins has no cut, so mapping
	// stops there before any cone can contain it.
	if x.Kind != network.KindLogic || len(x.Fanins) > cut.MaxLeaves {
		return 0, false // cone escapes the cut
	}
	var in [cut.MaxLeaves]uint16
	for i, fi := range x.Fanins {
		t, ok := e.eval(fi)
		if !ok {
			return 0, false
		}
		in[i] = t
	}
	out := apply(e.local[x.ID], in[:len(x.Fanins)]...)
	e.stamp[x.ID], e.memo[x.ID] = e.epoch, out
	return out, true
}

// cutSet is an open-addressed set of leaf tuples that bumping epoch
// empties.
type cutSet struct {
	epoch uint32
	slots [cutSetSlots]struct {
		epoch  uint32
		leaves cut.Leaves
	}
}

// insert adds c's leaves, reporting false if they were already present.
func (t *cutSet) insert(c *mcut) bool {
	l := c.leaves
	h := uint32(l[0])*0x9E3779B1 + uint32(l[1])*0x85EBCA77 + uint32(l[2])*0xC2B2AE3D + uint32(l[3])*0x27D4EB2F
	for i := (h ^ h>>16) & (cutSetSlots - 1); ; i = (i + 1) & (cutSetSlots - 1) {
		sl := &t.slots[i]
		if sl.epoch != t.epoch {
			sl.epoch, sl.leaves = t.epoch, l
			return true
		}
		if sl.leaves == l {
			return false
		}
	}
}

// choice is a node's best cover; match.G is nil for a node not mapped.
type choice struct {
	cut   mcut
	match genlib.Match
	arr   float64
	area  float64
}

// MapDelay maps the network for minimum delay, returning a fresh mapped
// network. The input must be decomposed (every node function must be
// coverable by 4-feasible cuts over the library; algebraic.OptimizeDelay
// produces suitable subject graphs). It records a "mapper.map_delay" span
// on tr counting the cuts enumerated and the (cut, gate) candidates tried
// by the DP. The per-node cut-enumeration DP checks ctx at every node and
// returns a typed guard budget error once the deadline passes.
func MapDelay(ctx context.Context, n *network.Network, lib *genlib.Library, tr *obs.Tracer) (*network.Network, error) {
	sp := tr.Begin("mapper.map_delay")
	defer sp.End()
	s := newMapState(n, lib)
	err := s.run(ctx, n)
	sp.Add("mapper_cuts", int64(s.cutsEnumerated))
	sp.Add("mapper_candidates", int64(s.candidatesTried))
	if err != nil {
		return nil, err
	}
	return s.extract(n)
}

// mapState is the delay DP over one network. Per-node state is indexed
// by Node.ID; seen and cand are buffers reused from node to node.
type mapState struct {
	lib   *genlib.Library
	nodes []*network.Node // node ID -> node, for extract
	// cuts[id] is node id's kept cuts, carved from block: pointer-free
	// arena blocks that fill up and are never copied.
	cuts  [][]mcut
	block []mcut
	arr   []float64
	best  []choice
	cone  coneEval
	seen  cutSet
	cand  []mcut

	cutsEnumerated, candidatesTried int
}

func newMapState(n *network.Network, lib *genlib.Library) *mapState {
	size := n.NumIDs()
	s := &mapState{
		lib:   lib,
		nodes: make([]*network.Node, size),
		cuts:  make([][]mcut, size),
		arr:   make([]float64, size),
		best:  make([]choice, size),
		cone: coneEval{local: make([]uint16, size), stamp: make([]uint32, size),
			memo: make([]uint16, size)},
	}
	for _, v := range n.Nodes() {
		s.nodes[v.ID] = v
		if v.Kind == network.KindLogic && len(v.Fanins) <= cut.MaxLeaves {
			s.cone.local[v.ID] = cut.FromCover(v.Func)
		}
	}
	return s
}

// carve returns an empty cut list of capacity n from the arena.
func (s *mapState) carve(n int) []mcut {
	if cap(s.block)-len(s.block) < n {
		s.block = make([]mcut, 0, min(max(2*cap(s.block), 256), 4096))
	}
	start := len(s.block)
	s.block = s.block[:start+n]
	return s.block[start : start : start+n]
}

// keepTrivial sets node v's kept cuts to its trivial cut.
func (s *mapState) keepTrivial(v *network.Node) {
	s.cuts[v.ID] = append(s.carve(1), trivialCut(int32(v.ID)))
}

// run chooses, in topological order, the cut and gate that minimize each
// node's arrival time, breaking ties by gate area.
func (s *mapState) run(ctx context.Context, n *network.Network) error {
	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	for _, p := range n.PIs {
		s.keepTrivial(p)
	}
	for _, l := range n.Latches {
		s.keepTrivial(l.Output)
	}

	for _, v := range order {
		if cerr := guard.Check(ctx, "mapper.map_delay"); cerr != nil {
			return fmt.Errorf("mapper: cut enumeration interrupted: %w", cerr)
		}
		// Constant nodes map directly to tie cells.
		if len(v.Fanins) == 0 {
			tt := uint16(0)
			if !v.Func.IsZeroFunction() {
				tt = 0xFFFF
			}
			m := s.lib.Match(tt, 0)
			if len(m) == 0 {
				return fmt.Errorf("mapper: library lacks tie cells")
			}
			s.best[v.ID] = choice{cut: mcut{tt: tt}, match: m[0], area: m[0].G.Area}
			s.keepTrivial(v)
			continue
		}
		cand := s.enumerate(v)
		if len(cand) == 0 {
			return fmt.Errorf("mapper: no feasible cut at node %s", v.Name)
		}
		// DP: choose the cut+gate minimizing arrival (area tie-break).
		var bc choice
		for i := range cand {
			c := &cand[i]
			for _, m := range s.lib.Match(c.tt, int(c.n)) {
				s.candidatesTried++
				a := 0.0
				for li, leaf := range c.leaves[:c.n] {
					la := s.arr[leaf] + m.G.PinDelays[m.PinFor[li]]
					if la > a {
						a = la
					}
				}
				if bc.match.G == nil || a < bc.arr-1e-12 ||
					(a < bc.arr+1e-12 && m.G.Area < bc.area) {
					bc = choice{cut: *c, match: m, arr: a, area: m.G.Area}
				}
			}
		}
		if bc.match.G == nil {
			return fmt.Errorf("mapper: no library match at node %s (function %v)", v.Name, v.Func)
		}
		s.best[v.ID] = bc
		s.arr[v.ID] = bc.arr
		// Keep a bounded cut set for consumers: the trivial cut, then the
		// candidates by leaf count, stable in enumeration order.
		kept := append(s.carve(min(len(cand)+1, maxCutsPerNode)), trivialCut(int32(v.ID)))
		for k := uint8(1); k <= cut.MaxLeaves; k++ {
			for i := 0; i < len(cand) && len(kept) < maxCutsPerNode; i++ {
				if cand[i].n == k {
					kept = append(kept, cand[i])
				}
			}
		}
		s.cuts[v.ID] = kept
	}
	return nil
}

// enumerate returns the distinct cuts of v with their truth tables, in
// first-seen order: the cross-merges of the fanins' kept cuts, or the
// immediate-fanin cut for wider nodes. The result is reused by the next
// call.
//
// A merged cut's table composes the fanin cuts' tables through v's local
// table where that is provably the stop-at-leaf function: when no leaf the
// merge adds to a fanin cut lies inside that cut's cone, tested against
// its interior signature. Otherwise, and for wider nodes, the cone is
// evaluated.
func (s *mapState) enumerate(v *network.Node) []mcut {
	s.cand = s.cand[:0]
	vbit := bit(int32(v.ID))
	local := s.cone.local[v.ID]
	switch len(v.Fanins) {
	case 1:
		// The fanin's kept cuts are distinct already.
		for _, c := range s.cuts[v.Fanins[0].ID] {
			c.tt = apply(local, c.tt)
			c.isig |= vbit
			s.cutsEnumerated++
			s.cand = append(s.cand, c)
		}
	case 2:
		s.seen.epoch++
		cuts0, cuts1 := s.cuts[v.Fanins[0].ID], s.cuts[v.Fanins[1].ID]
		for i0 := range cuts0 {
			a := &cuts0[i0]
			for i1 := range cuts1 {
				b := &cuts1[i1]
				sig := a.sig | b.sig
				if bits.OnesCount64(sig) > cut.MaxLeaves {
					continue
				}
				leaves, n, ok := cut.Merge(&a.leaves, a.n, &b.leaves, b.n)
				c := mcut{leaves: leaves, n: n, sig: sig}
				if !ok || !s.seen.insert(&c) {
					continue
				}
				ta, addedA := cut.Stretch(a.tt, &a.leaves, a.n, &leaves, n)
				tb, addedB := cut.Stretch(b.tt, &b.leaves, b.n, &leaves, n)
				if sigAt(&c, addedA)&a.isig == 0 && sigAt(&c, addedB)&b.isig == 0 {
					c.tt = apply(local, ta, tb)
				} else if tt, ok := s.cone.tt(v, &c); ok {
					c.tt = tt
				} else {
					continue
				}
				c.isig = vbit | a.isig | b.isig
				s.cutsEnumerated++
				s.cand = append(s.cand, c)
			}
		}
	default:
		// Wider nodes: immediate-fanin cut only.
		if len(v.Fanins) > cut.MaxLeaves {
			break
		}
		c := mcut{n: uint8(len(v.Fanins)), isig: vbit}
		for i, fi := range v.Fanins {
			c.leaves[i] = int32(fi.ID)
			c.sig |= bit(c.leaves[i])
		}
		slices.Sort(c.leaves[:c.n])
		if tt, ok := s.cone.tt(v, &c); ok {
			c.tt = tt
			s.cutsEnumerated++
			s.cand = append(s.cand, c)
		}
	}
	return s.cand
}

// extract builds the mapped network from the chosen covers.
func (s *mapState) extract(n *network.Network) (*network.Network, error) {
	m := network.New(n.Name + "_mapped")
	old2new := make([]*network.Node, len(s.nodes))
	for _, p := range n.PIs {
		old2new[p.ID] = m.AddPI(p.Name)
	}
	newLatches := make([]*network.Latch, len(n.Latches))
	for i, l := range n.Latches {
		newLatches[i] = m.AddLatch(l.Output.Name, nil, l.Init)
		old2new[l.Output.ID] = newLatches[i].Output
	}
	// Mark required nodes from the sinks.
	required := make([]bool, len(s.nodes))
	var need func(v *network.Node)
	need = func(v *network.Node) {
		if v.IsSource() || required[v.ID] {
			return
		}
		required[v.ID] = true
		bc := &s.best[v.ID]
		for _, leaf := range bc.cut.leaves[:bc.cut.n] {
			need(s.nodes[leaf])
		}
	}
	for _, p := range n.POs {
		need(p.Driver)
	}
	for _, l := range n.Latches {
		need(l.Driver)
	}
	// Materialize required nodes in topological order.
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, v := range order {
		if !required[v.ID] {
			continue
		}
		bc := &s.best[v.ID]
		if bc.match.G == nil {
			return nil, fmt.Errorf("mapper: required node %s has no mapping", v.Name)
		}
		fanins := make([]*network.Node, bc.cut.n)
		for i, leaf := range bc.cut.leaves[:bc.cut.n] {
			if fanins[i] = old2new[leaf]; fanins[i] == nil {
				return nil, fmt.Errorf("mapper: leaf %s of %s not materialized", s.nodes[leaf].Name, v.Name)
			}
		}
		// Node function: gate function re-expressed over fanin order.
		// Gate pin bc.match.PinFor[i] is driven by fanin i.
		gf := bc.match.G.Func
		var pins [cut.MaxLeaves]int
		varMap := pins[:gf.N]
		for i := 0; i < len(fanins); i++ {
			varMap[bc.match.PinFor[i]] = i
		}
		f := gf.Remap(len(fanins), varMap)
		node := m.AddLogic(v.Name, fanins, f)
		node.Gate = &genlib.Bound{G: bc.match.G, PinOf: bc.match.PinFor}
		old2new[v.ID] = node
	}
	for _, p := range n.POs {
		m.AddPO(p.Name, old2new[p.Driver.ID])
	}
	for i, l := range n.Latches {
		newLatches[i].Driver = old2new[l.Driver.ID]
	}
	if err := m.Check(); err != nil {
		return nil, fmt.Errorf("mapper: mapped network invalid: %w", err)
	}
	return m, nil
}

// Area reports the mapped area: bound-gate areas (literal count for any
// unmapped logic as a fallback) plus the library's per-register area.
func Area(n *network.Network, lib *genlib.Library) float64 {
	total := float64(len(n.Latches)) * lib.RegisterArea
	for _, v := range n.Nodes() {
		if v.Kind != network.KindLogic {
			continue
		}
		if v.Gate != nil {
			total += v.Gate.GateArea()
		} else {
			total += float64(v.Func.NumLits())
		}
	}
	return total
}
