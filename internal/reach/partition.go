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
	pos := make([]int, n.NumIDs()) // by Node.ID: a source's position in n.Latches or n.PIs
	for i, l := range n.Latches {
		latchRank[i] = -1
		pos[l.Output.ID] = i
	}
	for j, p := range n.PIs {
		piRank[j] = -1
		pos[p.ID] = j
	}
	visited := make([]bool, n.NumIDs())
	var dfs func(*network.Node)
	dfs = func(v *network.Node) {
		if visited[v.ID] {
			return
		}
		visited[v.ID] = true
		switch v.Kind {
		case network.KindPI:
			piRank[pos[v.ID]] = found
			found++
		case network.KindLatchOut:
			latchRank[pos[v.ID]] = found
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
// product of two. A machine's latches and PIs take the levels of their
// topoLeafRanks discovery order (sources no driver or output reaches
// after all others, latches before PIs, each in declaration order), and
// each latch's cur/next pair stays adjacent. In a product the second
// machine, the implementation, contributes only its latches, and they go
// above every variable of the first: below them the source, shared PIs
// included, keeps the order it has alone. Of the product orders measured
// on Table I this one built the fewest nodes on the SOP substrate and lost
// no exact verdict on either substrate; it is what keeps s510's retimed
// and resynthesized outputs under the node limit (DESIGN.md §9). The
// manager variable *indices* are untouched — only their level placement
// changes.
func levelOrder(ms []*Machine, nv int) []int {
	order := make([]int, 0, nv)
	for k := len(ms) - 1; k >= 0; k-- {
		mc := ms[k]
		lr, pr, found := topoLeafRanks(mc.N)
		at := make([][]int, found+len(lr)+len(pr)) // the variables of the source at each rank
		for i, r := range lr {
			if r < 0 {
				r = found + i
			}
			at[r] = []int{mc.CurVar[i], mc.NextVar[i]}
		}
		if k == 0 {
			for j, r := range pr {
				if r < 0 {
					r = found + len(lr) + j
				}
				at[r] = []int{mc.InVar[j]}
			}
		}
		for _, vs := range at {
			order = append(order, vs...)
		}
	}
	return order
}
