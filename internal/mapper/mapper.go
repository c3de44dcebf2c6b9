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
	"sort"

	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

const (
	maxCutLeaves   = 4
	maxCutsPerNode = 16
)

// cut is a set of at most maxCutLeaves leaves sorted by ID, with the
// truth table of its root over them (leaf i is variable i).
type cut struct {
	leaves [maxCutLeaves]*network.Node
	n      int
	tt     uint16
}

// cutKey identifies a cut by its leaf IDs; unused slots hold -1.
type cutKey [maxCutLeaves]int

func (c *cut) key() cutKey {
	k := cutKey{-1, -1, -1, -1}
	for i, l := range c.leaves[:c.n] {
		k[i] = l.ID
	}
	return k
}

func trivialCut(v *network.Node) cut {
	return cut{leaves: [maxCutLeaves]*network.Node{v}, n: 1, tt: 0xAAAA}
}

// mergeCuts unions the leaves of two cuts, failing above maxCutLeaves.
func mergeCuts(a, b *cut) (cut, bool) {
	var out cut
	i, j := 0, 0
	for i < a.n || j < b.n {
		var x *network.Node
		switch {
		case j >= b.n || (i < a.n && a.leaves[i].ID < b.leaves[j].ID):
			x = a.leaves[i]
			i++
		case i >= a.n || b.leaves[j].ID < a.leaves[i].ID:
			x = b.leaves[j]
			j++
		default:
			x = a.leaves[i]
			i++
			j++
		}
		if out.n == maxCutLeaves {
			return cut{}, false
		}
		out.leaves[out.n] = x
		out.n++
	}
	return out, true
}

// coneEval computes cut truth tables. The cone of the root is evaluated
// down to the cut's leaves and no further: a leaf is a free variable even
// where other leaves compute it, so a cut's table is not in general the
// composition of its fanin cuts' tables (DESIGN.md §8). memo[id] is node
// id's table over the current cut while stamp[id] == epoch, so no
// evaluation has to clear the arrays.
type coneEval struct {
	stamp []int
	memo  []uint16
	epoch int
}

// tt evaluates the truth table of v over the leaves of c; false means the
// cone escapes the cut.
func (e *coneEval) tt(v *network.Node, c *cut) (uint16, bool) {
	e.epoch++
	// Projection patterns for up to 4 variables over 16 minterms.
	proj := [maxCutLeaves]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	for i, l := range c.leaves[:c.n] {
		e.stamp[l.ID], e.memo[l.ID] = e.epoch, proj[i]
	}
	return e.eval(v)
}

func (e *coneEval) eval(x *network.Node) (uint16, bool) {
	if e.stamp[x.ID] == e.epoch {
		return e.memo[x.ID], true
	}
	if x.Kind != network.KindLogic {
		return 0, false // cone escapes the cut
	}
	for _, fi := range x.Fanins {
		if _, ok := e.eval(fi); !ok {
			return 0, false
		}
	}
	var out uint16
	for _, c := range x.Func.Cubes {
		cube := uint16(0xFFFF)
		for pin := 0; pin < c.N; pin++ {
			switch c.Lit(pin) {
			case logic.LitPos:
				cube &= e.memo[x.Fanins[pin].ID]
			case logic.LitNeg:
				cube &= ^e.memo[x.Fanins[pin].ID]
			case logic.LitNone:
				cube = 0
			}
		}
		out |= cube
	}
	e.stamp[x.ID], e.memo[x.ID] = e.epoch, out
	return out, true
}

// choice is a node's best cover; match.G is nil for a node not mapped.
type choice struct {
	cut   cut
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
	return extract(n, s.best)
}

// mapState is the delay DP over one network. Per-node state is indexed
// by Node.ID; seen and cand are buffers reused from node to node.
type mapState struct {
	lib  *genlib.Library
	cuts [][]cut
	arr  []float64
	best []choice
	cone coneEval
	seen map[cutKey]struct{}
	cand []cut

	cutsEnumerated, candidatesTried int
}

func newMapState(n *network.Network, lib *genlib.Library) *mapState {
	size := 0
	for _, v := range n.Nodes() {
		size = max(size, v.ID+1)
	}
	return &mapState{
		lib:  lib,
		cuts: make([][]cut, size),
		arr:  make([]float64, size),
		best: make([]choice, size),
		cone: coneEval{stamp: make([]int, size), memo: make([]uint16, size)},
		seen: make(map[cutKey]struct{}),
	}
}

// run chooses, in topological order, the cut and gate that minimize each
// node's arrival time, breaking ties by gate area.
func (s *mapState) run(ctx context.Context, n *network.Network) error {
	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	for _, p := range n.PIs {
		s.cuts[p.ID] = []cut{trivialCut(p)}
	}
	for _, l := range n.Latches {
		s.cuts[l.Output.ID] = []cut{trivialCut(l.Output)}
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
			s.best[v.ID] = choice{cut: cut{tt: tt}, match: m[0], area: m[0].G.Area}
			s.cuts[v.ID] = []cut{trivialCut(v)}
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
			for _, m := range s.lib.Match(c.tt, c.n) {
				s.candidatesTried++
				a := 0.0
				for li, leaf := range c.leaves[:c.n] {
					la := s.arr[leaf.ID] + m.G.PinDelays[m.PinFor[li]]
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
		kept := make([]cut, 1, min(len(cand)+1, maxCutsPerNode))
		kept[0] = trivialCut(v)
		for k := 1; k <= maxCutLeaves; k++ {
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
func (s *mapState) enumerate(v *network.Node) []cut {
	clear(s.seen)
	s.cand = s.cand[:0]
	add := func(c cut) {
		k := c.key()
		if _, dup := s.seen[k]; dup {
			return
		}
		s.seen[k] = struct{}{}
		tt, ok := s.cone.tt(v, &c)
		if !ok {
			return
		}
		s.cutsEnumerated++
		c.tt = tt
		s.cand = append(s.cand, c)
	}
	switch len(v.Fanins) {
	case 1:
		for _, c0 := range s.cuts[v.Fanins[0].ID] {
			add(c0)
		}
	case 2:
		cuts1 := s.cuts[v.Fanins[1].ID]
		for i0 := range s.cuts[v.Fanins[0].ID] {
			c0 := &s.cuts[v.Fanins[0].ID][i0]
			for i1 := range cuts1 {
				if c, ok := mergeCuts(c0, &cuts1[i1]); ok {
					add(c)
				}
			}
		}
	default:
		// Wider nodes: immediate-fanin cut only.
		if len(v.Fanins) <= maxCutLeaves {
			var c cut
			c.n = copy(c.leaves[:], v.Fanins)
			leaves := c.leaves[:c.n]
			sort.Slice(leaves, func(i, j int) bool { return leaves[i].ID < leaves[j].ID })
			add(c)
		}
	}
	return s.cand
}

// extract builds the mapped network from the chosen covers.
func extract(n *network.Network, best []choice) (*network.Network, error) {
	m := network.New(n.Name + "_mapped")
	old2new := make(map[*network.Node]*network.Node)
	for _, p := range n.PIs {
		old2new[p] = m.AddPI(p.Name)
	}
	type latchPair struct {
		oldL *network.Latch
		newL *network.Latch
	}
	var lpairs []latchPair
	for _, l := range n.Latches {
		nl := m.AddLatch(l.Output.Name, nil, l.Init)
		old2new[l.Output] = nl.Output
		lpairs = append(lpairs, latchPair{l, nl})
	}
	// Mark required nodes from the sinks.
	required := make(map[*network.Node]bool)
	var need func(v *network.Node)
	need = func(v *network.Node) {
		if v.IsSource() || required[v] {
			return
		}
		required[v] = true
		bc := &best[v.ID]
		for _, leaf := range bc.cut.leaves[:bc.cut.n] {
			need(leaf)
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
		if !required[v] {
			continue
		}
		bc := &best[v.ID]
		if bc.match.G == nil {
			return nil, fmt.Errorf("mapper: required node %s has no mapping", v.Name)
		}
		fanins := make([]*network.Node, bc.cut.n)
		for i, leaf := range bc.cut.leaves[:bc.cut.n] {
			nf, ok := old2new[leaf]
			if !ok {
				return nil, fmt.Errorf("mapper: leaf %s of %s not materialized", leaf.Name, v.Name)
			}
			fanins[i] = nf
		}
		// Node function: gate function re-expressed over fanin order.
		// Gate pin bc.match.PinFor[i] is driven by fanin i.
		gf := bc.match.G.Func
		varMap := make([]int, gf.N)
		for i := 0; i < len(fanins); i++ {
			varMap[bc.match.PinFor[i]] = i
		}
		f := gf.Remap(len(fanins), varMap)
		node := m.AddLogic(v.Name, fanins, f)
		node.Gate = &genlib.Bound{G: bc.match.G, PinOf: bc.match.PinFor}
		old2new[v] = node
	}
	for _, p := range n.POs {
		m.AddPO(p.Name, old2new[p.Driver])
	}
	for _, lp := range lpairs {
		lp.newL.Driver = old2new[lp.oldL.Driver]
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
