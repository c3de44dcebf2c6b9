// Package mapper implements delay-oriented technology mapping of a
// two-input decomposed subject network onto a genlib library, using
// 4-feasible cut enumeration and dynamic programming over arrival times
// (the "mapped to produce minimum delay circuits" step of the paper's
// experimental flows). The result is a new network whose logic nodes carry
// bound-gate annotations consumed by timing.MappedDelay.
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

type cut struct {
	leaves []*network.Node // sorted by ID
	tt     uint16
}

func cutKey(leaves []*network.Node) string {
	k := ""
	for _, l := range leaves {
		k += fmt.Sprintf("%d,", l.ID)
	}
	return k
}

// mergeLeaves unions two sorted leaf sets, returning nil if above limit.
func mergeLeaves(a, b []*network.Node) []*network.Node {
	out := make([]*network.Node, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].ID < b[j].ID):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].ID < a[i].ID:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > maxCutLeaves {
			return nil
		}
	}
	return out
}

// coneTT evaluates the truth table of v over the cut leaves.
func coneTT(v *network.Node, leaves []*network.Node) (uint16, bool) {
	idx := make(map[*network.Node]int, len(leaves))
	for i, l := range leaves {
		idx[l] = i
	}
	// Projection patterns for up to 4 variables over 16 minterms.
	proj := [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	memo := make(map[*network.Node]uint16)
	var eval func(x *network.Node) (uint16, bool)
	eval = func(x *network.Node) (uint16, bool) {
		if i, ok := idx[x]; ok {
			return proj[i], true
		}
		if t, ok := memo[x]; ok {
			return t, true
		}
		if x.Kind != network.KindLogic {
			return 0, false // cone escapes the cut
		}
		fanTT := make([]uint16, len(x.Fanins))
		for i, fi := range x.Fanins {
			t, ok := eval(fi)
			if !ok {
				return 0, false
			}
			fanTT[i] = t
		}
		var out uint16
		for _, c := range x.Func.Cubes {
			cube := uint16(0xFFFF)
			for pin := 0; pin < c.N; pin++ {
				switch c.Lit(pin) {
				case logic.LitPos:
					cube &= fanTT[pin]
				case logic.LitNeg:
					cube &= ^fanTT[pin]
				case logic.LitNone:
					cube = 0
				}
			}
			out |= cube
		}
		memo[x] = out
		return out, true
	}
	return eval(v)
}

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
	cutsEnumerated, candidatesTried := 0, 0
	m, err := mapDelay(ctx, n, lib, &cutsEnumerated, &candidatesTried)
	sp.Add("mapper_cuts", int64(cutsEnumerated))
	sp.Add("mapper_candidates", int64(candidatesTried))
	return m, err
}

func mapDelay(ctx context.Context, n *network.Network, lib *genlib.Library, cutsEnumerated, candidatesTried *int) (*network.Network, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	cuts := make(map[*network.Node][]cut)
	arr := make(map[*network.Node]float64)
	best := make(map[*network.Node]*choice)

	trivial := func(v *network.Node) cut {
		return cut{leaves: []*network.Node{v}, tt: 0xAAAA}
	}
	for _, p := range n.PIs {
		cuts[p] = []cut{trivial(p)}
		arr[p] = 0
	}
	for _, l := range n.Latches {
		cuts[l.Output] = []cut{trivial(l.Output)}
		arr[l.Output] = 0
	}

	for _, v := range order {
		if cerr := guard.Check(ctx, "mapper.map_delay"); cerr != nil {
			return nil, fmt.Errorf("mapper: cut enumeration interrupted: %w", cerr)
		}
		// Constant nodes map directly to tie cells.
		if len(v.Fanins) == 0 {
			tt := uint16(0)
			if !v.Func.IsZeroFunction() {
				tt = 0xFFFF
			}
			var m []genlib.Match
			if tt == 0 {
				m = lib.Match(0, 0)
			} else {
				m = lib.Match(1, 0)
			}
			if len(m) == 0 {
				return nil, fmt.Errorf("mapper: library lacks tie cells")
			}
			best[v] = &choice{cut: cut{leaves: nil, tt: tt}, match: m[0], arr: 0, area: m[0].G.Area}
			arr[v] = 0
			cuts[v] = []cut{trivial(v)}
			continue
		}
		// Enumerate cuts: cross-merge fanin cuts.
		seen := map[string]bool{}
		var cand []cut
		addCut := func(leaves []*network.Node) {
			if leaves == nil {
				return
			}
			k := cutKey(leaves)
			if seen[k] {
				return
			}
			seen[k] = true
			tt, ok := coneTT(v, leaves)
			if !ok {
				return
			}
			*cutsEnumerated++
			cand = append(cand, cut{leaves: leaves, tt: tt})
		}
		switch len(v.Fanins) {
		case 1:
			for _, c0 := range cuts[v.Fanins[0]] {
				addCut(c0.leaves)
			}
		case 2:
			for _, c0 := range cuts[v.Fanins[0]] {
				for _, c1 := range cuts[v.Fanins[1]] {
					addCut(mergeLeaves(c0.leaves, c1.leaves))
				}
			}
		default:
			// Wider nodes: immediate-fanin cut only.
			leaves := make([]*network.Node, len(v.Fanins))
			copy(leaves, v.Fanins)
			sort.Slice(leaves, func(i, j int) bool { return leaves[i].ID < leaves[j].ID })
			if len(leaves) <= maxCutLeaves {
				addCut(leaves)
			}
		}
		if len(cand) == 0 {
			return nil, fmt.Errorf("mapper: no feasible cut at node %s", v.Name)
		}
		// DP: choose the cut+gate minimizing arrival (area tie-break).
		var bc *choice
		for _, c := range cand {
			nLeaves := len(c.leaves)
			// Compact the tt to the significant variables only.
			for _, m := range lib.Match(truncTT(c.tt, nLeaves), nLeaves) {
				*candidatesTried++
				a := 0.0
				for li, leaf := range c.leaves {
					la := arr[leaf] + m.G.PinDelays[m.PinFor[li]]
					if la > a {
						a = la
					}
				}
				if bc == nil || a < bc.arr-1e-12 ||
					(a < bc.arr+1e-12 && m.G.Area < bc.area) {
					bc = &choice{cut: c, match: m, arr: a, area: m.G.Area}
				}
			}
		}
		if bc == nil {
			return nil, fmt.Errorf("mapper: no library match at node %s (function %v)", v.Name, v.Func)
		}
		best[v] = bc
		arr[v] = bc.arr
		// Keep a bounded cut set for consumers (prefer few leaves, then
		// early arrival of the mapped node).
		sort.SliceStable(cand, func(i, j int) bool {
			return len(cand[i].leaves) < len(cand[j].leaves)
		})
		if len(cand) > maxCutsPerNode-1 {
			cand = cand[:maxCutsPerNode-1]
		}
		cuts[v] = append([]cut{trivial(v)}, cand...)
	}

	return extract(n, lib, best)
}

// truncTT reduces a 4-var table to n significant variables.
func truncTT(tt uint16, n int) uint16 {
	bits := 1 << uint(n)
	mask := uint16(1)<<uint(bits) - 1
	if bits >= 16 {
		mask = 0xFFFF
	}
	return tt & mask
}

// extract builds the mapped network from the chosen covers.
func extract(n *network.Network, lib *genlib.Library, best map[*network.Node]*choice) (*network.Network, error) {
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
		bc := best[v]
		if bc == nil {
			return
		}
		for _, leaf := range bc.cut.leaves {
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
		bc := best[v]
		if bc == nil {
			return nil, fmt.Errorf("mapper: required node %s has no mapping", v.Name)
		}
		fanins := make([]*network.Node, len(bc.cut.leaves))
		for i, leaf := range bc.cut.leaves {
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
