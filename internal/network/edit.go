package network

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// This file contains structural editing operations: rewiring, node
// duplication (used to make critical paths fanout free), elimination
// (collapsing a node into a consumer), dead-node sweeping and deep cloning.

// SetFunction replaces node's fanins and function atomically, maintaining
// fanout lists.
func (n *Network) SetFunction(node *Node, fanins []*Node, f *logic.Cover) {
	if node.Kind != KindLogic {
		panic("network: SetFunction on non-logic node")
	}
	fanins, f = n.normalizeFanins(fanins, f)
	// A bound-gate annotation describes the old function; keep it only
	// when the cover is structurally unchanged (pure rewires such as
	// retiming moves preserve it).
	if node.Gate != nil && !sameCover(node.Func, f) {
		node.Gate = nil
	}
	for _, fi := range node.Fanins {
		fi.removeFanout(node)
	}
	node.Fanins = fanins
	node.Func = f
	for _, fi := range fanins {
		fi.fanouts = append(fi.fanouts, node)
	}
	n.invalidateTopo()
}

func sameCover(a, b *logic.Cover) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N != b.N || len(a.Cubes) != len(b.Cubes) {
		return false
	}
	for i := range a.Cubes {
		if !a.Cubes[i].Equal(b.Cubes[i]) {
			return false
		}
	}
	return true
}

func (node *Node) removeFanout(consumer *Node) {
	for i, f := range node.fanouts {
		if f == consumer {
			node.fanouts = append(node.fanouts[:i], node.fanouts[i+1:]...)
			return
		}
	}
}

// ReplaceFanin rewires consumer so that occurrences of old become new. If
// new is already a fanin the two variables are merged in the cover.
func (n *Network) ReplaceFanin(consumer, old, new *Node) {
	idx := consumer.FaninIndex(old)
	if idx < 0 {
		panic(fmt.Sprintf("network: %s is not a fanin of %s", old.Name, consumer.Name))
	}
	fanins := make([]*Node, len(consumer.Fanins))
	copy(fanins, consumer.Fanins)
	fanins[idx] = new
	n.SetFunction(consumer, fanins, consumer.Func.Clone())
}

// RedirectConsumers moves every consumer of old (logic fanouts, latch data
// inputs, primary outputs) onto new. old keeps its fanins and may then be
// swept.
func (n *Network) RedirectConsumers(old, new *Node) {
	for _, c := range n.LogicFanouts(old) {
		n.ReplaceFanin(c, old, new)
	}
	for _, l := range n.Latches {
		if l.Driver == old {
			l.Driver = new
		}
	}
	for _, p := range n.POs {
		if p.Driver == old {
			p.Driver = new
		}
	}
}

// Duplicate creates a copy of a logic node (same fanins and function) with a
// derived name, returning the copy. Consumers are not rewired.
func (n *Network) Duplicate(node *Node) *Node {
	if node.Kind != KindLogic {
		panic("network: Duplicate on non-logic node")
	}
	fanins := make([]*Node, len(node.Fanins))
	copy(fanins, node.Fanins)
	return n.AddLogic(node.Name+"_dup", fanins, node.Func.Clone())
}

// Compose returns consumer f's fanins and cover with the function of its
// fanin g substituted (SIS "eliminate" of one edge), leaving the network
// as it is: f loses g as a fanin and gains g's fanins, by the Shannon
// identity f = g·f|g=1 + g'·f|g=0. The fanin list may repeat a node;
// SetFunction merges duplicates.
func Compose(f, g *Node) ([]*Node, *logic.Cover) {
	if g.Kind != KindLogic {
		panic("network: Compose requires a logic fanin")
	}
	idx := f.FaninIndex(g)
	if idx < 0 {
		panic(fmt.Sprintf("network: %s is not a fanin of %s", g.Name, f.Name))
	}
	// The combined fanin list: f's fanins minus g, then g's fanins.
	var newFanins []*Node
	mapOld := make([]int, len(f.Fanins)) // old f var -> new var (or -1 for g)
	for i, fi := range f.Fanins {
		if i == idx {
			mapOld[i] = -1
			continue
		}
		mapOld[i] = len(newFanins)
		newFanins = append(newFanins, fi)
	}
	base := len(newFanins)
	mapG := make([]int, len(g.Fanins)) // g var -> new var
	for i, gi := range g.Fanins {
		mapG[i] = base + i
		newFanins = append(newFanins, gi)
	}
	m := len(newFanins)
	// Cofactored covers no longer depend on var idx; give it a junk valid
	// slot to satisfy Remap's bound-variable rule (it is unused).
	mapOld[idx] = 0
	hi := f.Func.CofactorVar(idx, true).Remap(m, mapOld)
	lo := f.Func.CofactorVar(idx, false).Remap(m, mapOld)
	gOn := g.Func.Remap(m, mapG)
	gOff := g.Func.Complement().Remap(m, mapG)
	return newFanins, logic.Or(logic.And(gOn, hi), logic.And(gOff, lo))
}

// TrimFanins drops fanins the node's function does not syntactically
// depend on, shrinking the cover's variable space. Returns the number of
// fanins removed.
func (n *Network) TrimFanins(node *Node) int {
	if node.Kind != KindLogic {
		return 0
	}
	used := make([]bool, len(node.Fanins))
	for _, v := range node.Func.Support() {
		used[v] = true
	}
	keep := 0
	for _, u := range used {
		if u {
			keep++
		}
	}
	if keep == len(node.Fanins) {
		return 0
	}
	varMap := make([]int, len(node.Fanins))
	var fanins []*Node
	for i, u := range used {
		if u {
			varMap[i] = len(fanins)
			fanins = append(fanins, node.Fanins[i])
		} else {
			varMap[i] = -1
		}
	}
	// Remap tolerates unused -1 entries only if the cover does not bind
	// them; by construction it does not.
	for i := range varMap {
		if varMap[i] < 0 {
			varMap[i] = 0 // placeholder, variable is unbound
		}
	}
	f := node.Func.Remap(keep, varMap)
	removed := len(node.Fanins) - keep
	n.SetFunction(node, fanins, f)
	return removed
}

// TrimAllFanins applies TrimFanins to every logic node.
func (n *Network) TrimAllFanins() int {
	total := 0
	for _, v := range n.Nodes() {
		if v.Kind == KindLogic {
			total += n.TrimFanins(v)
		}
	}
	return total
}

// RemoveDeadNode deletes a logic node with no consumers. It costs the
// node's fanins, not the network: the node is tombstoned, and Nodes drops
// it at its next compaction.
func (n *Network) RemoveDeadNode(node *Node) {
	if node.Kind != KindLogic {
		panic("network: RemoveDeadNode on non-logic node")
	}
	if n.NumFanouts(node) != 0 {
		panic(fmt.Sprintf("network: node %s still has consumers", node.Name))
	}
	for _, fi := range node.Fanins {
		fi.removeFanout(node)
	}
	n.tombstone(node)
}

// RemoveLatch deletes a latch and its output node. The output node must
// have no consumers.
func (n *Network) RemoveLatch(l *Latch) {
	if n.NumFanouts(l.Output) != 0 {
		panic(fmt.Sprintf("network: latch %s output still has consumers", l.Name))
	}
	if i := slices.Index(n.Latches, l); i >= 0 {
		n.Latches = slices.Delete(n.Latches, i, i+1)
	}
	n.tombstone(l.Output)
}

// Sweep removes logic nodes unreachable from any primary output or register
// data input, and returns the number removed.
//
// One reverse pass suffices: fanins are always created before their
// consumers, so walking the node array backward removes every consumer of
// a dead node before the node itself — and every consumer of a dead node
// is itself dead (liveness is transitive through fanins). Removal
// tombstones, so the sweep is linear in the network size.
func (n *Network) Sweep() int {
	live := make([]bool, n.nextID)
	stack := make([]*Node, 0, len(n.POs)+len(n.Latches))
	for _, p := range n.POs {
		stack = append(stack, p.Driver)
	}
	for _, l := range n.Latches {
		stack = append(stack, l.Driver)
		live[l.Output.ID] = true
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == nil || live[v.ID] {
			continue
		}
		live[v.ID] = true
		stack = append(stack, v.Fanins...)
	}
	removed := 0
	for i := len(n.nodes) - 1; i >= 0; i-- {
		v := n.nodes[i]
		if v.Kind != KindLogic || v.removed || live[v.ID] {
			continue
		}
		for _, fi := range v.Fanins {
			fi.removeFanout(v)
		}
		n.tombstone(v)
		removed++
	}
	return removed
}

// SweepLatches removes the registers whose outputs feed nothing, and the
// logic that dies with them, until none is left (removing one register
// may strand a whole chain). It returns the number of registers removed.
func (n *Network) SweepLatches() int {
	removed := 0
	for {
		n.Sweep()
		k := removed
		for _, l := range slices.Clone(n.Latches) {
			if n.NumFanouts(l.Output) == 0 {
				n.RemoveLatch(l)
				removed++
			}
		}
		if removed == k {
			return removed
		}
	}
}

// Clone returns a deep copy of the network. Node identities are fresh but
// names, order and functions are preserved; the copy's IDs are 0..k-1 in
// node order. Its nodes, fanin lists and fanout lists are carved from one
// arena each, every list capped so that an append reallocates instead of
// overwriting its neighbour.
func (n *Network) Clone() *Network {
	k, nf, nfo := 0, 0, 0
	for _, v := range n.nodes {
		if !v.removed {
			k, nf, nfo = k+1, nf+len(v.Fanins), nfo+len(v.fanouts)
		}
	}
	c := &Network{Name: n.Name, nodes: make([]*Node, 0, k), byName: make(map[string]*Node, k)}
	arena := make([]Node, k)
	fanins := make([]*Node, nf)
	fanouts := make([]*Node, nfo)
	// to maps an ID of n to its copy; nil stays nil (a latch may be
	// undriven while a network is built).
	toID := make([]*Node, n.nextID)
	to := func(v *Node) *Node {
		if v == nil {
			return nil
		}
		return toID[v.ID]
	}
	for _, v := range n.nodes {
		if v.removed {
			continue
		}
		nv := &arena[len(c.nodes)]
		nv.Name, nv.Kind, nv.Gate = v.Name, v.Kind, v.Gate
		nv.fanouts, fanouts = fanouts[:0:len(v.fanouts)], fanouts[len(v.fanouts):]
		toID[v.ID] = c.register(nv)
	}
	// Fanout lists fill in consumer node order, not in n's list order.
	for _, v := range n.nodes {
		if v.removed || v.Kind != KindLogic {
			continue
		}
		nv := toID[v.ID]
		nv.Func = v.Func.Clone()
		m := len(v.Fanins)
		nv.Fanins, fanins = fanins[:m:m], fanins[m:]
		for i, fi := range v.Fanins {
			nfi := toID[fi.ID]
			nv.Fanins[i] = nfi
			nfi.fanouts = append(nfi.fanouts, nv)
		}
	}
	for _, v := range n.PIs {
		c.PIs = append(c.PIs, to(v))
	}
	for _, p := range n.POs {
		c.POs = append(c.POs, &PO{Name: p.Name, Driver: to(p.Driver)})
	}
	for _, l := range n.Latches {
		c.Latches = append(c.Latches, &Latch{Name: l.Name, Driver: to(l.Driver), Output: to(l.Output), Init: l.Init})
	}
	return c
}
