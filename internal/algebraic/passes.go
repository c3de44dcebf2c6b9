package algebraic

import (
	"context"
	"sort"

	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
)

// SimplifyNodes runs two-level minimization on every logic node and trims
// redundant fanins. Returns the literal-count reduction.
func SimplifyNodes(n *network.Network) int {
	before := n.NumLits()
	for _, v := range n.Nodes() {
		if v.Kind != network.KindLogic {
			continue
		}
		m := logic.Minimize(v.Func)
		if m.NumLits() < v.Func.NumLits() ||
			(m.NumLits() == v.Func.NumLits() && len(m.Cubes) < len(v.Func.Cubes)) {
			n.SetFunction(v, v.Fanins, m)
		}
		n.TrimFanins(v)
	}
	return before - n.NumLits()
}

// Eliminate collapses logic nodes into their consumers when the resulting
// literal-count change does not exceed threshold (SIS `eliminate`).
// Nodes feeding POs or registers directly are kept. Returns the number of
// nodes eliminated. ctx is checked once per candidate node, before the
// node is touched: a typed guard budget error is returned together with
// the count so far, and the network is left valid.
//
// Passes repeat until one eliminates nothing, and a rejected candidate is
// evaluated again on every later pass, so most compositions recur with
// unchanged operands. They are memoised for the call, keyed on
// (consumer, g, version of g): a node's version counts the rewrites this
// call made to it, and rewriting a consumer drops its entries. Nothing
// else writes the network while Eliminate runs, so a hit returns what
// composing afresh would. A memo rather than a worklist, because the
// output depends on the visit order.
//
// A pass visits the node list as it stood at the start of the pass, as
// though each removal shifted the rest of the list down in place: the
// node after each removed one is skipped until the next pass, and once
// the shifted list runs out, the remaining visits all see its last node.
func Eliminate(ctx context.Context, n *network.Network, threshold int) (int, error) {
	type composition struct {
		g        *network.Node
		gVersion int
		fanins   []*network.Node
		cover    *logic.Cover
	}
	// memo[c.ID] lists consumer c's compositions, one per fanin g, and
	// version is indexed by Node.ID too; Eliminate adds no node.
	memo := make([][]composition, n.NumIDs())
	version := make([]int, n.NumIDs())
	compose := func(c, g *network.Node) ([]*network.Node, *logic.Cover) {
		for _, e := range memo[c.ID] {
			if e.g == g && e.gVersion == version[g.ID] {
				return e.fanins, e.cover
			}
		}
		nf, nc := composedFunction(c, g)
		memo[c.ID] = append(memo[c.ID], composition{g, version[g.ID], nf, nc})
		return nf, nc
	}
	var newFanins [][]*network.Node
	var newCovers []*logic.Cover
	count := 0
	for {
		progress := false
		nodes := n.Nodes()
		skip := 0 // removals so far this pass, while the shifted list lasts
		for i := range nodes {
			g := nodes[min(i+skip, len(nodes)-1)]
			if g.Kind != network.KindLogic {
				continue
			}
			if err := guard.Check(ctx, "algebraic.eliminate"); err != nil {
				return count, err
			}
			if n.FindNode(g.Name) != g {
				continue
			}
			consumers := n.LogicFanouts(g)
			if len(consumers) == 0 {
				continue
			}
			if len(n.POsDrivenBy(g)) > 0 || len(n.LatchesDrivenBy(g)) > 0 {
				continue
			}
			// Estimate the literal delta of collapsing g everywhere.
			delta := -g.Func.NumLits()
			newFanins, newCovers = newFanins[:0], newCovers[:0]
			for _, c := range consumers {
				nf, nc := compose(c, g)
				newFanins, newCovers = append(newFanins, nf), append(newCovers, nc)
				delta += nc.NumLits() - c.Func.NumLits()
			}
			if delta > threshold {
				continue
			}
			for k, c := range consumers {
				n.SetFunction(c, newFanins[k], newCovers[k])
				n.TrimFanins(c)
				version[c.ID]++
				memo[c.ID] = memo[c.ID][:0]
			}
			if n.NumFanouts(g) == 0 {
				n.RemoveDeadNode(g)
				memo[g.ID] = nil
				if i+skip < len(nodes) {
					skip++
				}
			}
			count++
			progress = true
		}
		if !progress {
			return count, nil
		}
	}
}

// composedFunction returns consumer f's fanins and minimized cover with g
// substituted, without touching the network.
func composedFunction(f, g *network.Node) ([]*network.Node, *logic.Cover) {
	fanins, cover := network.Compose(f, g)
	return fanins, logic.Minimize(cover)
}

// divisorOcc records a node containing a candidate divisor.
type divisorOcc struct {
	node *network.Node
}

// ExtractKernels performs fx-style common-divisor extraction: repeatedly
// find the kernel shared by the most node functions (weighted by literal
// savings), create a node for it, and divide it out everywhere. Returns
// the number of divisors extracted.
func ExtractKernels(n *network.Network, maxDivisors int) int {
	extracted := 0
	for iter := 0; iter < maxDivisors; iter++ {
		type cand struct {
			key    string
			cover  *logic.Cover    // in the fanin space of a witness node
			fanins []*network.Node // global fanin nodes of the divisor
			occ    []*network.Node
			value  int
		}
		cands := make(map[string]*cand)
		for _, v := range n.Nodes() {
			if v.Kind != network.KindLogic || len(v.Func.Cubes) < 2 || len(v.Func.Cubes) > 24 {
				continue
			}
			for _, k := range Kernels(v.Func) {
				if len(k.K.Cubes) < 2 {
					continue
				}
				key, fanins, cov := globalKey(v, k.K)
				if key == "" {
					continue
				}
				c, ok := cands[key]
				if !ok {
					c = &cand{key: key, cover: cov, fanins: fanins}
					cands[key] = c
				}
				// A node may contain the kernel several times (different
				// co-kernels); occurrence list keeps nodes unique.
				dup := false
				for _, o := range c.occ {
					if o == v {
						dup = true
						break
					}
				}
				if !dup {
					c.occ = append(c.occ, v)
				}
			}
		}
		var best *cand
		for _, c := range cands {
			if len(c.occ) < 2 {
				continue
			}
			// Exact savings: simulate the division at each occurrence.
			c.value = -c.cover.NumLits()
			for _, v := range c.occ {
				if s := divisionSavings(v, c.fanins, c.cover); s > 0 {
					c.value += s
				}
			}
			if c.value <= 0 {
				continue
			}
			if best == nil || c.value > best.value ||
				(c.value == best.value && c.key < best.key) {
				best = c
			}
		}
		if best == nil {
			return extracted
		}
		div := n.AddLogic("", best.fanins, best.cover)
		applied := false
		for _, v := range best.occ {
			if substituteDivisor(n, v, div) {
				applied = true
			}
		}
		if !applied {
			n.RemoveDeadNode(div)
			return extracted
		}
		extracted++
	}
	return extracted
}

// globalKey renders a kernel (over node v's fanin space) canonically over
// global fanin identities, returning the key, the divisor's fanin list and
// its cover over that list.
func globalKey(v *network.Node, k *logic.Cover) (string, []*network.Node, *logic.Cover) {
	sup := k.Support()
	if len(sup) == 0 {
		return "", nil, nil
	}
	fanins := make([]*network.Node, len(sup))
	for i, s := range sup {
		fanins[i] = v.Fanins[s]
	}
	// Sort fanins by ID for canonicity.
	order := make([]int, len(sup))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return fanins[order[a]].ID < fanins[order[b]].ID })
	varMap := make([]int, k.N)
	for i := range varMap {
		varMap[i] = -1
	}
	sorted := make([]*network.Node, len(sup))
	for newPos, oi := range order {
		sorted[newPos] = fanins[oi]
		varMap[sup[oi]] = newPos
	}
	// Distinct global nodes may collide after sorting only if duplicated;
	// fanins are unique per node so this is safe.
	for i := range varMap {
		if varMap[i] < 0 {
			varMap[i] = 0
		}
	}
	cov := k.Remap(len(sup), varMap)
	key := ""
	for _, f := range sorted {
		key += "/" + f.Name
	}
	return key + "#" + CoverKey(cov), sorted, cov
}

// divisionSavings computes the literal savings of rewriting v as
// q·x + r for a divisor with the given fanins/cover (0 if not divisible).
func divisionSavings(v *network.Node, fanins []*network.Node, cover *logic.Cover) int {
	varMap := make([]int, len(fanins))
	for i, df := range fanins {
		idx := v.FaninIndex(df)
		if idx < 0 {
			return 0
		}
		varMap[i] = idx
	}
	d := cover.Remap(v.Func.N, varMap)
	q, r := Divide(v.Func, d)
	if len(q.Cubes) == 0 {
		return 0
	}
	after := q.NumLits() + len(q.Cubes) + r.NumLits()
	return v.Func.NumLits() - after
}

// substituteDivisor rewrites v as q·div + r when the division is
// profitable. Returns whether a rewrite happened.
func substituteDivisor(n *network.Network, v *network.Node, div *network.Node) bool {
	if v == div {
		return false
	}
	// Express div's cover in v's fanin space.
	varMap := make([]int, len(div.Fanins))
	for i, df := range div.Fanins {
		idx := v.FaninIndex(df)
		if idx < 0 {
			return false
		}
		varMap[i] = idx
	}
	d := div.Func.Remap(v.Func.N, varMap)
	q, r := Divide(v.Func, d)
	if len(q.Cubes) == 0 {
		return false
	}
	// New function: q'·x + r over fanins + div.
	newFanins := make([]*network.Node, len(v.Fanins)+1)
	copy(newFanins, v.Fanins)
	newFanins[len(v.Fanins)] = div
	m := len(newFanins)
	ident := make([]int, v.Func.N)
	for i := range ident {
		ident[i] = i
	}
	qx := q.Remap(m, ident)
	for _, c := range qx.Cubes {
		c.SetLit(m-1, logic.LitPos)
	}
	rx := r.Remap(m, ident)
	nf := logic.Or(qx, rx)
	if nf.NumLits() >= v.Func.NumLits() {
		return false
	}
	n.SetFunction(v, newFanins, nf)
	n.TrimFanins(v)
	return true
}
