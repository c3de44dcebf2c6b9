// Package reach performs BDD-based implicit state enumeration of a
// sequential network (Coudert–Madre / Touati-style reachability). The
// baseline "retiming + combinational optimization" flow uses it to extract
// unreachable-state external don't cares — the computation the paper's own
// technique deliberately avoids (Section II: "implicit state enumeration
// methods using BDDs are computationally intensive...  In contrast, we do
// not have to perform any computation to evaluate these retiming induced
// don't care conditions").
package reach

import (
	"context"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

// Analysis is the result of reachability on one network.
//
// Variable layout in the manager: latch i owns current-state var 2i and
// next-state var 2i+1 (interleaved for compact transition relations);
// primary input j owns var 2L+j. Variable *indices* are fixed; their level
// placement is topology-driven (topoLevelOrder), with each cur/next pair kept
// adjacent.
type Analysis struct {
	M *bdd.Manager
	N *network.Network
	// CurVar / NextVar index by latch position.
	CurVar, NextVar []int
	// InVar indexes by PI position.
	InVar []int
	// NodeFn maps every node in the cone of influence of a latch data input
	// or a primary output to its BDD over current-state and input vars.
	NodeFn map[*network.Node]bdd.Ref
	// Init and Reachable are state sets over current-state vars.
	Init      bdd.Ref
	Reachable bdd.Ref
	// Depth is the number of image steps until the fixpoint.
	Depth int
	// Stats snapshots the BDD manager accounting (node counts, unique
	// table, compute-cache hits/misses) at the fixpoint.
	Stats bdd.Stats
	// FrontierPeakNodes is the largest frontier BDD (in internal nodes)
	// seen during the fixpoint iteration.
	FrontierPeakNodes int
}

// Limits bounds the analysis; a zero field means "no limit".
type Limits struct {
	MaxLatches  int // refuse circuits with more registers than this
	MaxBDDNodes int // abort when the manager exceeds this many nodes
}

// DefaultLimits keeps implicit enumeration within laptop-friendly bounds,
// mirroring the scalability wall the paper describes for this approach.
// Partitioned image computation raised the latch ceiling from the 24 the
// monolithic relation could afford to 32 (DESIGN.md §9).
var DefaultLimits = Limits{MaxLatches: 32, MaxBDDNodes: 2_000_000}

// ErrTooLarge is returned when the circuit exceeds the configured limits.
// Analyze wraps it with the observed node/iteration numbers; match with
// errors.Is, not ==.
var ErrTooLarge = fmt.Errorf("reach: circuit exceeds implicit-enumeration limits")

// Analyze computes the reachable state set from the declared initial state.
// It records one "reach.analyze" span on tr carrying the iteration count,
// frontier peak, and BDD table counters, plus one "reach_iter" event per
// image step on the JSON sink. The node-function construction and every
// image step of the fixpoint iteration check ctx, returning a typed guard
// budget error (errors.Is(err, guard.ErrBudget)) wrapping the cause when
// the deadline passes or the context is cancelled.
func Analyze(ctx context.Context, n *network.Network, lim Limits, tr *obs.Tracer) (a *Analysis, err error) {
	L := len(n.Latches)
	if lim.MaxLatches > 0 && L > lim.MaxLatches {
		return nil, fmt.Errorf("reach: %d latches exceed the %d-latch limit (enable -sweep for SAT-based induction instead of exact reachability): %w",
			L, lim.MaxLatches, ErrTooLarge)
	}
	nv := 2*L + len(n.PIs)
	m := bdd.New(nv)
	m.MaxNodes = lim.MaxBDDNodes
	sp := tr.Begin("reach.analyze")
	defer sp.End()
	depth := 0
	defer func() {
		r := recover()
		st := m.Stats()
		sp.Add("reach_iterations", int64(depth))
		sp.Add("bdd_nodes", int64(st.PeakNodes))
		sp.Add("bdd_cache_hits", st.CacheHits)
		sp.Add("bdd_cache_misses", st.CacheMisses)
		if r != nil {
			if r == bdd.ErrNodeLimit {
				a, err = nil, fmt.Errorf("reach: state space too large: %d BDD nodes for %d latches after %d image steps (limit %d): %w",
					st.Nodes, L, depth, lim.MaxBDDNodes, ErrTooLarge)
				return
			}
			panic(r)
		}
	}()

	a = &Analysis{
		M: m, N: n,
		CurVar:  make([]int, L),
		NextVar: make([]int, L),
		InVar:   make([]int, len(n.PIs)),
		NodeFn:  make(map[*network.Node]bdd.Ref),
	}
	for i := 0; i < L; i++ {
		a.CurVar[i] = 2 * i
		a.NextVar[i] = 2*i + 1
	}
	for j := range n.PIs {
		a.InVar[j] = 2*L + j
	}
	m.SetOrder(topoLevelOrder(n, a.CurVar, a.NextVar, a.InVar, nv))
	if err := a.buildNodeFns(ctx); err != nil {
		return nil, err
	}

	// Initial state: conjunction of defined latch values (X unconstrained).
	init := bdd.True
	for i, l := range n.Latches {
		switch l.Init {
		case network.V0:
			init = m.And(init, m.NVar(a.CurVar[i]))
		case network.V1:
			init = m.And(init, m.Var(a.CurVar[i]))
		}
	}
	a.Init = init

	// Per-latch relations next_i ↔ δ_i, clustered with an early-
	// quantification schedule.
	parts := make([]bdd.Ref, L)
	for i, l := range n.Latches {
		parts[i] = m.Xnor(m.Var(a.NextVar[i]), a.NodeFn[l.Driver])
	}
	quant := make([]bool, nv)
	for _, v := range a.CurVar {
		quant[v] = true
	}
	for _, v := range a.InVar {
		quant[v] = true
	}
	// Rename next -> current.
	perm := make([]int, nv)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < L; i++ {
		perm[a.NextVar[i]] = a.CurVar[i]
		perm[a.CurVar[i]] = a.NextVar[i]
	}
	trel := BuildTransRel(m, parts, quant, perm, DefaultClusterNodes)
	sp.Add("reach_clusters", int64(trel.NumClusters()))
	sp.Add("reach_quant_schedule_len", int64(trel.ScheduleLen()))
	sp.Max("reach_cluster_peak_nodes", int64(trel.PeakClusterNodes()))

	reached := init
	frontier := init
	for ; ; depth++ {
		if cerr := guard.Check(ctx, "reach.analyze"); cerr != nil {
			return nil, fmt.Errorf("reach: fixpoint interrupted after %d image steps: %w", depth, cerr)
		}
		fn := m.NodeCount(frontier)
		if fn > a.FrontierPeakNodes {
			a.FrontierPeakNodes = fn
		}
		if tr != nil {
			tr.Event("reach_iter", map[string]any{
				"depth": depth, "frontier_nodes": fn, "bdd_nodes": m.Size(),
			})
		}
		img := trel.Image(m, frontier)
		newStates := m.And(img, m.Not(reached))
		if newStates == bdd.False {
			a.Depth = depth
			break
		}
		reached = m.Or(reached, newStates)
		frontier = newStates
	}
	a.Reachable = reached
	a.Stats = m.Stats()
	sp.Max("reach_frontier_peak_nodes", int64(a.FrontierPeakNodes))
	return a, nil
}

// buildNodeFns computes the BDD over current-state and input vars for every
// node in the cone of influence of a latch data input or a primary output;
// logic feeding neither (dead cones left behind by other passes) never
// reaches the BDD manager.
func (a *Analysis) buildNodeFns(ctx context.Context) error {
	m := a.M
	for j, p := range a.N.PIs {
		a.NodeFn[p] = m.Var(a.InVar[j])
	}
	for i, l := range a.N.Latches {
		a.NodeFn[l.Output] = m.Var(a.CurVar[i])
	}
	order, err := a.N.TopoOrder()
	if err != nil {
		return err
	}
	need := coneOfInfluence(a.N)
	for _, v := range order {
		if !need[v] {
			continue
		}
		if cerr := guard.Check(ctx, "reach.analyze"); cerr != nil {
			return fmt.Errorf("reach: node-function construction interrupted: %w", cerr)
		}
		f := bdd.False
		for _, c := range v.Func.Cubes {
			cube := bdd.True
			for pin := 0; pin < c.N; pin++ {
				fiRef := a.NodeFn[v.Fanins[pin]]
				switch c.Lit(pin) {
				case logic.LitPos:
					cube = m.And(cube, fiRef)
				case logic.LitNeg:
					cube = m.And(cube, m.Not(fiRef))
				case logic.LitNone:
					cube = bdd.False
				}
				if cube == bdd.False {
					break // a void literal (or contradiction) kills the cube
				}
			}
			f = m.Or(f, cube)
		}
		a.NodeFn[v] = f
	}
	return nil
}

// coneOfInfluence marks the transitive fanin of every latch data input and
// primary output.
func coneOfInfluence(n *network.Network) map[*network.Node]bool {
	need := make(map[*network.Node]bool)
	var mark func(*network.Node)
	mark = func(v *network.Node) {
		if need[v] {
			return
		}
		need[v] = true
		for _, fi := range v.Fanins {
			mark(fi)
		}
	}
	for _, l := range n.Latches {
		mark(l.Driver)
	}
	for _, po := range n.POs {
		mark(po.Driver)
	}
	return need
}

// NumReachable returns the number of reachable states.
func (a *Analysis) NumReachable() float64 {
	// SatCount counts over all manager variables; divide out next-state
	// and input vars, which Reachable does not depend on.
	total := a.M.SatCount(a.Reachable)
	free := len(a.NextVar) + len(a.InVar)
	for i := 0; i < free; i++ {
		total /= 2
	}
	return total
}

// UnreachableDC projects the reachable set onto the given latch positions
// and returns the complement as a SOP cover over len(latchIdx) variables:
// cover variable k corresponds to latchIdx[k]. A partial state assignment
// is a don't care only if every completion of it is unreachable, so the
// projection quantifies the other latches existentially before
// complementing.
func (a *Analysis) UnreachableDC(latchIdx []int) *logic.Cover {
	keep := make(map[int]bool, len(latchIdx))
	for _, i := range latchIdx {
		keep[i] = true
	}
	quant := make([]bool, a.M.NumVars())
	for i, v := range a.CurVar {
		if !keep[i] {
			quant[v] = true
		}
	}
	proj := a.M.Exists(a.Reachable, quant)
	unreach := a.M.Not(proj)
	// Re-express over a compact variable space.
	full := a.M.ToCover(unreach, a.M.NumVars())
	varMap := make([]int, a.M.NumVars())
	for i := range varMap {
		varMap[i] = -1
	}
	for k, i := range latchIdx {
		varMap[a.CurVar[i]] = k
	}
	out := logic.NewCover(len(latchIdx))
	for _, c := range full.Cubes {
		d := logic.NewCube(len(latchIdx))
		ok := true
		for v := 0; v < c.N; v++ {
			if l := c.Lit(v); l != logic.LitBoth {
				if varMap[v] < 0 {
					ok = false
					break
				}
				d.SetLit(varMap[v], l)
			}
		}
		if ok {
			out.Add(d)
		}
	}
	return out
}
