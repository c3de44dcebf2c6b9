package aig

// This file is the parallel levelized rewriting engine: the DAG-aware
// optimization pass that actually shrinks the graph, where Balance only
// re-associates it. The algorithm is classic cut rewriting — enumerate
// priority cuts per node, canonicalize each cut function into the NPN
// library (npn.go), and replace the cut's MFFC with the library's optimal
// structure when the accounting shows a net node gain — run wave-parallel:
//
// Levelization. Nodes are grouped into topological waves by their exact
// unit-delay level (maintained eagerly by And, so levelization is one
// bucket pass). A node's cuts derive only from its fanins' cuts, and every
// fanin sits in a strictly earlier wave, so all nodes of one wave are
// independent: each wave is sharded across parexec workers, and the
// parexec.Map barrier between waves is the only synchronization.
//
// Determinism. The decision phase is read-only on the old graph; each
// node's cuts, canonical class, MFFC count, and accept/reject decision
// depend only on the node itself and results of earlier waves — never on
// which shard computed them or in what order. The apply phase is serial
// and rebuilds a fresh graph in output order. Node numbering is therefore
// byte-identical at any worker width, so Rewrite always runs GOMAXPROCS
// wide and only tests vary the width (see TestRewriteDeterministicAcross
// Workers).
//
// Allocation. Cut storage is one flat preallocated slab (C slots per
// node); per-worker scratch lives in arenas created once per Rewrite call
// and reused across waves with epoch-stamped invalidation, so the per-node
// hot loop does not allocate in steady state.

import (
	"context"

	"repro/internal/cut"
	"repro/internal/parexec"
)

// rewriteCuts is the priority-cut budget C per node.
const rewriteCuts = 8

// pcut is one priority cut: sorted leaf node ids, the root's function
// over them (a padded cut table), the depth of its deepest leaf, and the
// area-flow score that ranks it. The cut width is cut.MaxLeaves, which
// the NPN library matches (uint16 truth tables, 222 classes).
type pcut struct {
	leaves cut.Leaves
	depth  int32
	aflow  float32
	tt     uint16
	n      uint8
}

// better is the priority order: area-flow, then leaf depth, then fewer
// leaves, then lexicographic leaves — a total order, so bounded insertion
// keeps an identical front at any enumeration interleaving.
func (c *pcut) better(d *pcut) bool {
	if c.aflow != d.aflow {
		return c.aflow < d.aflow
	}
	if c.depth != d.depth {
		return c.depth < d.depth
	}
	if c.n != d.n {
		return c.n < d.n
	}
	for i := 0; i < int(c.n); i++ {
		if c.leaves[i] != d.leaves[i] {
			return c.leaves[i] < d.leaves[i]
		}
	}
	return false
}

// Decision kinds of the rewrite pass.
const (
	rwNone  = uint8(iota) // keep the node as-is
	rwConst               // root is semantically constant: substitute repl
	rwLeaf                // root collapses to a (possibly complemented) leaf
	rwImpl                // replace the cut cone with a library structure
)

// rwDecision is one node's accepted replacement, produced read-only in
// the parallel phase and consumed by the serial apply phase.
type rwDecision struct {
	leaves cut.Leaves
	repl   Lit   // rwConst/rwLeaf: substitute literal in old-graph ids
	gain   int32 // estimated net AND savings (≥ 0 when accepted)
	depth  int32 // estimated level of the replacement output
	tt     uint16
	n      uint8
	kind   uint8
}

// RewriteStats reports what one pass did.
type RewriteStats struct {
	Applied    int64 // replacements materialized in the rebuilt graph
	Gain       int64 // summed accepted MFFC-accounting gains (AND nodes)
	CutsPruned int64 // cut candidates dropped by the priority bound
	Waves      int64 // topological waves processed
}

// rwArena is one worker's private scratch. Epoch stamping makes clearing
// O(1): a slot is valid only when its stamp matches the current epoch.
type rwArena struct {
	refSnap  []int32 // local fanout copy for MFFC dereference simulation
	refStamp []int32
	member   []int32 // epoch stamp: node is in the current cut's MFFC
	leafMark []int32 // epoch stamp: node is a leaf of the current cut
	stack    []int32
	epoch    int32
	pruned   int64
}

func newArena(n int) *rwArena {
	return &rwArena{
		refSnap:  make([]int32, n),
		refStamp: make([]int32, n),
		member:   make([]int32, n),
		leafMark: make([]int32, n),
		stack:    make([]int32, 0, 64),
	}
}

// rwEngine holds the shared read-only inputs and the per-node output
// slabs of one Rewrite call.
type rwEngine struct {
	g      *Graph
	lib    *npnLib
	refs   []int32 // global fanout counts
	req    []int32 // required times (reqInf: dead)
	cuts   []pcut  // flat: node id*rewriteCuts .. +cutLen[id]
	cutLen []uint8
	afBest []float32 // best cut area-flow per AND node (CIs: 0)
	dec    []rwDecision
	arenas []*rwArena
}

// Rewrite runs one wave-parallel rewriting pass on GOMAXPROCS workers
// and returns the rebuilt graph (the receiver is unchanged, like Balance).
func (g *Graph) Rewrite(ctx context.Context) (*Graph, RewriteStats, error) {
	return g.rewrite(ctx, 0)
}

// rewrite is Rewrite at an explicit width (<= 0 selects GOMAXPROCS); the
// result is byte-identical at any width.
func (g *Graph) rewrite(ctx context.Context, width int) (*Graph, RewriteStats, error) {
	var stats RewriteStats
	workers := parexec.Workers(width)
	n := len(g.nodes)
	e := &rwEngine{
		g:      g,
		lib:    getNPNLib(),
		refs:   g.FanoutCounts(),
		req:    g.requiredTimes(),
		cuts:   make([]pcut, n*rewriteCuts),
		cutLen: make([]uint8, n),
		afBest: make([]float32, n),
		dec:    make([]rwDecision, n),
		arenas: make([]*rwArena, workers),
	}
	for i := range e.arenas {
		e.arenas[i] = newArena(n)
	}

	// Levelization: bucket AND nodes by exact level. Ascending id order
	// within a wave falls out of the ascending bucket fill.
	maxLevel := int32(0)
	for id := int32(1); id < int32(n); id++ {
		if g.IsAnd(id) && g.levels[id] > maxLevel {
			maxLevel = g.levels[id]
		}
	}
	waves := make([][]int32, maxLevel+1)
	for id := int32(1); id < int32(n); id++ {
		if g.IsAnd(id) {
			waves[g.levels[id]] = append(waves[g.levels[id]], id)
		}
	}

	type shard struct{ nodes []int32 }
	for _, wave := range waves {
		if len(wave) == 0 {
			continue
		}
		stats.Waves++
		// Contiguous sharding: shard index doubles as arena index, and the
		// split depends only on the wave size and worker count — per-node
		// results never depend on which shard ran them.
		nw := workers
		if nw > len(wave) {
			nw = len(wave)
		}
		shards := make([]shard, nw)
		for i := range shards {
			lo, hi := i*len(wave)/nw, (i+1)*len(wave)/nw
			shards[i] = shard{nodes: wave[lo:hi]}
		}
		if _, err := parexec.Map(ctx, nw, shards,
			func(ctx context.Context, si int, sh shard) (struct{}, error) {
				arena := e.arenas[si]
				for _, id := range sh.nodes {
					e.processNode(id, arena)
				}
				return struct{}{}, nil
			}); err != nil {
			return nil, stats, err
		}
	}
	for _, a := range e.arenas {
		stats.CutsPruned += a.pruned
	}

	ng := e.apply(&stats)
	return ng, stats, nil
}

// processNode enumerates the node's priority cuts, records its best area
// flow, and decides the best acceptable replacement. Reads: the graph,
// cuts/afBest of strictly earlier waves, the shared library. Writes: this
// node's cut slab, afBest, decision, and the worker-private arena.
func (e *rwEngine) processNode(id int32, arena *rwArena) {
	g := e.g
	f0, f1 := g.nodes[id].f0, g.nodes[id].f1
	e.enumerateCuts(id, f0, f1, arena)
	cuts := e.cutsOf(id)
	if len(cuts) > 0 {
		e.afBest[id] = cuts[0].aflow
	}
	e.decide(id, arena)
}

func (e *rwEngine) cutsOf(id int32) []pcut {
	return e.cuts[int(id)*rewriteCuts : int(id)*rewriteCuts+int(e.cutLen[id])]
}

// leafAreaFlow is a leaf's contribution to a cut's area-flow score: the
// leaf's own best-cut flow amortized over its fanout.
func (e *rwEngine) leafAreaFlow(leaf int32) float32 {
	if !e.g.IsAnd(leaf) {
		return 0
	}
	r := e.refs[leaf]
	if r < 1 {
		r = 1
	}
	return e.afBest[leaf] / float32(r)
}

// enumerateCuts computes the bounded priority-cut set of an AND node:
// the cross product of each fanin's cuts plus its trivial cut, merged,
// deduplicated by leaf set, and kept only while inside the per-node
// budget (evictions and rejections count as pruned).
func (e *rwEngine) enumerateCuts(id int32, f0, f1 Lit, arena *rwArena) {
	g := e.g
	n0, n1 := f0.Node(), f1.Node()
	trivial0 := pcut{leaves: cut.Leaves{n0}, n: 1, tt: cut.Var[0], depth: g.levels[n0]}
	trivial1 := pcut{leaves: cut.Leaves{n1}, n: 1, tt: cut.Var[0], depth: g.levels[n1]}

	cuts0 := e.cutsOf(n0)
	cuts1 := e.cutsOf(n1)
	base := int(id) * rewriteCuts
	e.cutLen[id] = 0

	consider := func(c0, c1 *pcut) {
		leaves, n, ok := cut.Merge(&c0.leaves, c0.n, &c1.leaves, c1.n)
		if !ok {
			return // infeasible: union exceeds the cut width
		}
		merged := pcut{leaves: leaves, n: n}
		t0, _ := cut.Stretch(c0.tt, &c0.leaves, c0.n, &leaves, n)
		if f0.Compl() {
			t0 = ^t0
		}
		t1, _ := cut.Stretch(c1.tt, &c1.leaves, c1.n, &leaves, n)
		if f1.Compl() {
			t1 = ^t1
		}
		merged.tt = t0 & t1
		merged.aflow = 1
		for k := 0; k < int(merged.n); k++ {
			l := merged.leaves[k]
			if lv := g.levels[l]; lv > merged.depth {
				merged.depth = lv
			}
			merged.aflow += e.leafAreaFlow(l)
		}
		e.insertCut(id, base, &merged, arena)
	}

	consider(&trivial0, &trivial1)
	for ci := range cuts0 {
		consider(&cuts0[ci], &trivial1)
	}
	for cj := range cuts1 {
		consider(&trivial0, &cuts1[cj])
	}
	for ci := range cuts0 {
		for cj := range cuts1 {
			consider(&cuts0[ci], &cuts1[cj])
		}
	}
}

// insertCut places a candidate into the node's rank-ordered slab,
// deduplicating by leaf set and evicting past the budget.
func (e *rwEngine) insertCut(id int32, base int, cand *pcut, arena *rwArena) {
	ln := int(e.cutLen[id])
	slab := e.cuts[base : base+rewriteCuts]
	for k := 0; k < ln; k++ {
		if slab[k].leaves == cand.leaves {
			return // identical leaves, identical function: a duplicate
		}
	}
	pos := ln
	for pos > 0 && cand.better(&slab[pos-1]) {
		pos--
	}
	if ln == rewriteCuts {
		if pos == ln {
			arena.pruned++ // worse than the whole kept front
			return
		}
		arena.pruned++ // the last cut falls off
		ln--
	}
	copy(slab[pos+1:ln+1], slab[pos:ln])
	slab[pos] = *cand
	e.cutLen[id] = uint8(ln + 1)
}

// decide evaluates every kept cut of the node and records the best
// acceptable replacement: largest gain, then shallowest, then first in
// cut order. Gains must not stretch the node past its required time, and
// zero-gain structures are accepted only on the critical path when they
// reduce the node's level — the area-for-depth trade the flow wants.
func (e *rwEngine) decide(id int32, arena *rwArena) {
	lvl := e.g.levels[id]
	req := e.req[id]
	critical := req == lvl
	best := rwDecision{kind: rwNone}
	for _, c := range e.cutsOf(id) {
		d := e.evalCut(id, &c, arena)
		if d.kind == rwNone {
			continue
		}
		accept := (d.gain > 0 && d.depth <= req) ||
			(d.gain == 0 && critical && d.depth < lvl)
		if !accept {
			continue
		}
		if best.kind == rwNone || d.gain > best.gain ||
			(d.gain == best.gain && d.depth < best.depth) {
			best = d
		}
	}
	e.dec[id] = best
}

// evalCut canonicalizes the cut function, prices the library structure
// against logic the graph already has, and returns the candidate decision
// (kind rwNone when the class has no structure — never at full coverage).
func (e *rwEngine) evalCut(id int32, c *pcut, arena *rwArena) rwDecision {
	g := e.g
	d := rwDecision{leaves: c.leaves, tt: c.tt, n: c.n, kind: rwNone}
	// Collapse cases: the cut proves the root constant or a projection of
	// one leaf. The whole MFFC is the gain; nothing new is built.
	switch c.tt {
	case 0x0000, 0xFFFF:
		d.kind = rwConst
		d.repl = False.NotIf(c.tt == 0xFFFF)
		d.gain = e.mffcSize(id, c, arena)
		d.depth = 0
		return d
	}
	for i := 0; i < int(c.n); i++ {
		if c.tt == cut.Var[i] || c.tt == ^cut.Var[i] {
			d.kind = rwLeaf
			d.repl = MkLit(c.leaves[i], c.tt != cut.Var[i])
			d.gain = e.mffcSize(id, c, arena)
			d.depth = g.levels[c.leaves[i]]
			return d
		}
	}
	ent := e.lib.canon[c.tt]
	impl, ok := e.lib.impls[ent.canon]
	if !ok {
		return d
	}
	saved := e.mffcSize(id, c, arena)
	var leafLits [4]Lit
	for i := 0; i < int(c.n); i++ {
		leafLits[i] = MkLit(c.leaves[i], false)
	}
	mapped, _ := cutLeafLits(ent.xf, &leafLits)
	cost, depth := e.price(impl, &mapped, arena)
	d.kind = rwImpl
	d.gain = saved - cost
	d.depth = depth
	return d
}

// price walks the structure against the old graph read-only: a gate whose
// fanins are both already present is free if FindAnd resolves it to a
// surviving node (members of the cut's MFFC are dying, so hits inside it
// still cost — a conservative estimate; the serial apply phase's strash
// recovers any sharing the estimate missed). Returns the number of new
// AND nodes and the estimated output level.
func (e *rwEngine) price(impl *libImpl, mapped *[4]Lit, arena *rwArena) (cost, depth int32) {
	g := e.g
	ep := arena.epoch
	var lits [4 + 16]Lit
	var known [4 + 16]bool
	var lvl [4 + 16]int32
	for i := 0; i < 4; i++ {
		lits[i] = mapped[i]
		known[i] = true
		lvl[i] = g.levels[mapped[i].Node()]
	}
	for gi, gate := range impl.gates {
		ai, bi := gate.a>>1, gate.b>>1
		slot := 4 + gi
		if known[ai] && known[bi] {
			a := lits[ai].NotIf(gate.a&1 != 0)
			b := lits[bi].NotIf(gate.b&1 != 0)
			if f, found := g.FindAnd(a, b); found && arena.member[f.Node()] != ep {
				lits[slot] = f
				known[slot] = true
				lvl[slot] = g.levels[f.Node()]
				continue
			}
		}
		cost++
		known[slot] = false
		l := lvl[ai]
		if lvl[bi] > l {
			l = lvl[bi]
		}
		lvl[slot] = l + 1
	}
	return cost, lvl[impl.out>>1]
}

// mffcSize counts the AND nodes freed if the root were replaced: the
// maximum fanout-free cone bounded by the cut leaves, via local
// dereference simulation over epoch-stamped fanout copies. Marks cone
// members in the arena for price's dying-node check.
func (e *rwEngine) mffcSize(root int32, c *pcut, arena *rwArena) int32 {
	g := e.g
	arena.epoch++
	ep := arena.epoch
	for i := 0; i < int(c.n); i++ {
		arena.leafMark[c.leaves[i]] = ep
	}
	arena.member[root] = ep
	count := int32(1)
	arena.stack = arena.stack[:0]
	arena.stack = append(arena.stack, root)
	for len(arena.stack) > 0 {
		id := arena.stack[len(arena.stack)-1]
		arena.stack = arena.stack[:len(arena.stack)-1]
		n := &g.nodes[id]
		for _, f := range [2]Lit{n.f0, n.f1} {
			fn := f.Node()
			if !g.IsAnd(fn) || arena.leafMark[fn] == ep {
				continue
			}
			if arena.refStamp[fn] != ep {
				arena.refStamp[fn] = ep
				arena.refSnap[fn] = e.refs[fn]
			}
			arena.refSnap[fn]--
			if arena.refSnap[fn] == 0 {
				count++
				arena.member[fn] = ep
				arena.stack = append(arena.stack, fn)
			}
		}
	}
	return count
}

// apply is the serial rebuild: a fresh graph constructed on demand from
// the outputs, substituting each accepted decision as its node is
// reached. Nodes whose MFFC died are simply never rebuilt, and the new
// graph's strash re-finds every sharing opportunity the estimates priced.
func (e *rwEngine) apply(stats *RewriteStats) *Graph {
	g := e.g
	ng := New(g.Name)
	old2new := make([]Lit, len(g.nodes))
	built := make([]bool, len(g.nodes))
	old2new[0], built[0] = False, true
	for i, id := range g.pis {
		old2new[id], built[id] = ng.AddPI(g.piNames[i]), true
	}
	for _, la := range g.latches {
		old2new[la.Out], built[la.Out] = ng.AddLatch(la.Name, la.Init), true
	}
	var build func(id int32) Lit
	mapLit := func(l Lit) Lit { return build(l.Node()).NotIf(l.Compl()) }
	build = func(id int32) Lit {
		if built[id] {
			return old2new[id]
		}
		built[id] = true // set first: leaves are strictly below id, no cycles
		d := &e.dec[id]
		var nl Lit
		switch d.kind {
		case rwConst:
			nl = d.repl
			stats.Applied++
			stats.Gain += int64(d.gain)
		case rwLeaf:
			nl = mapLit(d.repl)
			stats.Applied++
			stats.Gain += int64(d.gain)
		case rwImpl:
			var leafLits [4]Lit
			for i := 0; i < int(d.n); i++ {
				leafLits[i] = build(d.leaves[i])
			}
			ent := e.lib.canon[d.tt]
			impl := e.lib.impls[ent.canon]
			mapped, outNeg := cutLeafLits(ent.xf, &leafLits)
			nl = impl.instantiate(&mapped, ng.And).NotIf(outNeg)
			stats.Applied++
			stats.Gain += int64(d.gain)
		default:
			n := g.nodes[id]
			nl = ng.And(mapLit(n.f0), mapLit(n.f1))
		}
		old2new[id] = nl
		return nl
	}
	for _, po := range g.pos {
		ng.AddPO(po.Name, mapLit(po.Lit))
	}
	for i, la := range g.latches {
		ng.SetLatchNext(i, mapLit(la.Next))
	}
	return ng
}
