// Partitioned transition relations with early quantification (Burch/Clarke/
// Long; Ranjan et al. IWLS'95) and topology-driven static variable ordering.
// Instead of materializing the monolithic ∏(next_i ↔ δ_i) — whose BDD is the
// scalability wall the paper cites for implicit enumeration — the per-latch
// relations are greedily clustered under a node-size threshold, the clusters
// are ordered so that every variable is existentially quantified at the
// first AndExists step after its last use, and the image is folded as a
// chain of relational products that never builds the full conjunction.
package reach

import (
	"sort"

	"repro/internal/bdd"
	"repro/internal/network"
)

// DefaultClusterNodes is the greedy clustering threshold of the image
// computation Analyze and the product-machine verifier use: a cluster stops
// absorbing per-latch relations once its BDD exceeds this many nodes.
const DefaultClusterNodes = 2000

// TransRel is a (possibly partitioned) transition relation prepared for
// image computation: an ordered list of cluster BDDs, a per-step
// quantification schedule, and the next→current renaming.
type TransRel struct {
	clusters []bdd.Ref
	sched    [][]bool // sched[k]: vars quantified by the k-th AndExists
	pre      []bool   // quant vars in no cluster's support
	preAny   bool
	perm     []int

	peakClusterNodes int
	schedSteps       int
}

// BuildTransRel clusters the per-latch relations `parts` under the node
// threshold and computes the early-quantification schedule for the
// variables marked in quant; perm is the next→current renaming applied
// after the chain. clusterNodes 1 gives every latch its own cluster.
func BuildTransRel(m *bdd.Manager, parts []bdd.Ref, quant []bool, perm []int, clusterNodes int) *TransRel {
	t := &TransRel{perm: perm}
	// Greedy sequential clustering: absorb relations in latch order while
	// the conjunction stays under the threshold. Under the topology-driven
	// variable order adjacent latches share structure, so neighbouring
	// relations conjoin compactly.
	var clusters []bdd.Ref
	cur := bdd.Ref(-1)
	for _, p := range parts {
		if cur < 0 {
			cur = p
			continue
		}
		trial := m.And(cur, p)
		if m.NodeCount(trial) <= clusterNodes {
			cur = trial
			continue
		}
		clusters = append(clusters, cur)
		cur = p
	}
	if cur >= 0 {
		clusters = append(clusters, cur)
	}

	// Per-cluster quantifiable support.
	sup := make([][]bool, len(clusters))
	for k, c := range clusters {
		s := m.Support(c)
		for v := range s {
			s[v] = s[v] && v < len(quant) && quant[v]
		}
		sup[k] = s
		if n := m.NodeCount(c); n > t.peakClusterNodes {
			t.peakClusterNodes = n
		}
	}

	// Order clusters greedily: at each step take the cluster with the most
	// exclusive quantifiable variables (vars no other remaining cluster
	// uses) — those are exactly the ones the step can quantify. Ties fall
	// to the smaller support, then the lower index, keeping the choice
	// deterministic.
	nv := m.NumVars()
	remaining := make([]int, len(clusters))
	for i := range remaining {
		remaining[i] = i
	}
	useCount := make([]int, nv) // among remaining clusters
	supSize := make([]int, len(clusters))
	for k := range clusters {
		for v := 0; v < nv; v++ {
			if sup[k][v] {
				useCount[v]++
				supSize[k]++
			}
		}
	}
	for len(remaining) > 0 {
		best := 0
		bestExcl, bestSize := -1, 0
		for ri, k := range remaining {
			excl := 0
			for v := 0; v < nv; v++ {
				if sup[k][v] && useCount[v] == 1 {
					excl++
				}
			}
			if excl > bestExcl || (excl == bestExcl && supSize[k] < bestSize) {
				best, bestExcl, bestSize = ri, excl, supSize[k]
			}
		}
		k := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		step := make([]bool, nv)
		for v := 0; v < nv; v++ {
			if sup[k][v] {
				useCount[v]--
				if useCount[v] == 0 {
					step[v] = true
				}
			}
		}
		t.clusters = append(t.clusters, clusters[k])
		t.sched = append(t.sched, step)
		for v := 0; v < nv; v++ {
			if step[v] {
				t.schedSteps++
				break
			}
		}
	}

	// Variables used by no cluster (a PI feeding no latch, a latch whose
	// output drives nothing) are quantified from the state set up front.
	t.pre = make([]bool, nv)
	for v := 0; v < nv; v++ {
		if v >= len(quant) || !quant[v] {
			continue
		}
		used := false
		for k := range sup {
			if sup[k][v] {
				used = true
				break
			}
		}
		if !used {
			t.pre[v] = true
			t.preAny = true
		}
	}
	if t.preAny {
		t.schedSteps++
	}
	return t
}

// Image computes the successor states of `from` under the relation,
// renamed back to current-state variables.
func (t *TransRel) Image(m *bdd.Manager, from bdd.Ref) bdd.Ref {
	acc := from
	if t.preAny {
		acc = m.Exists(acc, t.pre)
	}
	for k, c := range t.clusters {
		acc = m.AndExists(acc, c, t.sched[k])
	}
	return m.Permute(acc, t.perm)
}

// NumClusters returns the cluster count.
func (t *TransRel) NumClusters() int { return len(t.clusters) }

// ScheduleLen returns the number of image steps that quantify at least one
// variable (including the pre-step for variables outside every cluster).
func (t *TransRel) ScheduleLen() int { return t.schedSteps }

// PeakClusterNodes returns the largest cluster BDD, in internal nodes.
func (t *TransRel) PeakClusterNodes() int { return t.peakClusterNodes }

// topoLeafRanks assigns discovery ranks to latches and PIs from a
// depth-first traversal of the combinational fanin cones of the latch
// drivers (in latch order) and then the primary outputs: sources discovered
// together end up with adjacent ranks, so state variables that interact in
// some next-state function sit close in the BDD order. Latches or PIs not
// reachable from any driver or output keep rank -1; found is the number of
// ranked sources.
func topoLeafRanks(n *network.Network) (latchRank, piRank []int, found int) {
	latchRank = make([]int, len(n.Latches))
	piRank = make([]int, len(n.PIs))
	latchIdx := make(map[*network.Node]int, len(n.Latches))
	for i, l := range n.Latches {
		latchRank[i] = -1
		latchIdx[l.Output] = i
	}
	piIdx := make(map[*network.Node]int, len(n.PIs))
	for j, p := range n.PIs {
		piRank[j] = -1
		piIdx[p] = j
	}
	visited := make(map[*network.Node]bool)
	var dfs func(*network.Node)
	dfs = func(v *network.Node) {
		if visited[v] {
			return
		}
		visited[v] = true
		switch v.Kind {
		case network.KindPI:
			piRank[piIdx[v]] = found
			found++
		case network.KindLatchOut:
			latchRank[latchIdx[v]] = found
			found++
		default:
			for _, fi := range v.Fanins {
				dfs(fi)
			}
		}
	}
	for _, l := range n.Latches {
		dfs(l.Driver)
	}
	for _, po := range n.POs {
		dfs(po.Driver)
	}
	return latchRank, piRank, found
}

// levelOrder derives the static variable order of one machine or of a
// product of two. Each machine's latches and PIs are keyed by their
// topoLeafRanks discovery rank, normalized by the machine's source count
// (unseen sources after all seen ones, in declaration order); a shared PI
// takes the earlier of its two keys (piOfB pairs PI i of the first machine
// with PI piOfB[i] of the second). Sorting by key interleaves corresponding
// state variables of structurally similar machines, and each latch's
// cur/next pair stays adjacent. On one machine the ranks are distinct
// integers, so the order is plain rank order. The manager variable
// *indices* are untouched — only their level placement changes.
func levelOrder(ms []*Machine, piOfB []int, nv int) []int {
	type ent struct {
		key  float64
		kind int // 0 PI, 1+k latch of machine k
		idx  int
	}
	var ents []ent
	piKey := make([]float64, len(ms[0].N.PIs))
	for k, mc := range ms {
		lr, pr, found := topoLeafRanks(mc.N)
		denom := float64(found + len(lr) + len(pr) + 1)
		norm := func(r, fallback int) float64 {
			if r < 0 {
				r = fallback
			}
			return float64(r) / denom
		}
		for i := range lr {
			ents = append(ents, ent{norm(lr[i], found+i), 1 + k, i})
		}
		for i := range piKey {
			j := i
			if k > 0 {
				j = piOfB[i]
			}
			if key := norm(pr[j], found+len(lr)+j); k == 0 || key < piKey[i] {
				piKey[i] = key
			}
		}
	}
	for i, key := range piKey {
		ents = append(ents, ent{key, 0, i})
	}
	sort.Slice(ents, func(x, y int) bool {
		if ents[x].key != ents[y].key {
			return ents[x].key < ents[y].key
		}
		if ents[x].kind != ents[y].kind {
			return ents[x].kind < ents[y].kind
		}
		return ents[x].idx < ents[y].idx
	})
	order := make([]int, 0, nv)
	for _, e := range ents {
		if e.kind == 0 {
			order = append(order, ms[0].InVar[e.idx])
		} else {
			mc := ms[e.kind-1]
			order = append(order, mc.CurVar[e.idx], mc.NextVar[e.idx])
		}
	}
	return order
}
