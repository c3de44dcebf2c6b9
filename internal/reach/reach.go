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
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
)

// Analysis is the result of reachability on one network, or on the
// product machine of two.
//
// Variable layout in the manager: the latches of every machine, in
// machine order, own interleaved cur/next pairs (the i-th latch overall
// owns var 2i and var 2i+1, for compact transition relations); PI j of the
// first machine owns var 2L+j, and the second machine's PIs share those
// variables through the port pairing. Variable *indices* are fixed; their
// level placement is topology-driven (levelOrder), with each cur/next pair
// kept adjacent. A product places the second machine's latches above all
// of the first machine, so a verifier passes the source as the first
// machine and the implementation as the second.
type Analysis struct {
	M *bdd.Manager
	// Machines holds the analysed network, or the two sides of a product
	// machine in argument order.
	Machines []*Machine
	// Init and Reachable are state sets over current-state vars. For a
	// product analysed with a delayed-replacement prefix, Reachable holds
	// the states reachable after the prefix.
	Init      bdd.Ref
	Reachable bdd.Ref
	// Depth is the number of image steps until the fixpoint, after the
	// prefix.
	Depth int
	// Stats snapshots the BDD manager accounting (node counts, unique
	// table, compute-cache hits/misses) at the fixpoint.
	Stats bdd.Stats
}

// Machine is one network's share of an Analysis.
type Machine struct {
	N *network.Network
	// CurVar / NextVar index by latch position, InVar by PI position.
	CurVar, NextVar, InVar []int
	// NodeFn maps every node in the cone of influence of a latch data input
	// or a primary output to its BDD over current-state and input vars.
	NodeFn map[*network.Node]bdd.Ref
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

// relationShare is the share of Limits.MaxBDDNodes that a single-network
// analysis may spend on its node functions, initial state and per-latch
// relations. On Table I's DC extractions, relations of at most 26,140
// nodes reach the fixpoint and those of at least 168,698 trip the 2M-node
// limit, so 1/32 refuses the doomed ones before their image steps
// (DESIGN.md §9).
const relationShare = 32

// relationBudget is the node budget up to the relations under a MaxBDDNodes
// limit of maxNodes. It stays a limit at small values, since a zero
// bdd.Manager.MaxNodes means none.
func relationBudget(maxNodes int) int {
	if maxNodes <= 0 {
		return 0
	}
	return max(maxNodes/relationShare, 1)
}

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
//
// The node budget is staged: the node functions and per-latch relations
// must fit in 1/32 of lim.MaxBDDNodes, or the analysis returns ErrTooLarge
// after 0 image steps without building the rest; the transition relation
// and the fixpoint then get the full limit. The span's reach_setup_nodes
// counter holds the node count when the first image step starts, or at
// that refusal, and reach_stage_refused is 1 on a refusal.
func Analyze(ctx context.Context, n *network.Network, lim Limits, tr *obs.Tracer) (*Analysis, error) {
	return analyze(ctx, []*network.Network{n}, nil, 0, lim, relationBudget(lim.MaxBDDNodes), tr)
}

// AnalyzeProduct runs the same analysis on the product machine of a and b,
// whose inputs are shared as p pairs them: PI i of a and PI p.PI[i] of b
// read one variable. Reachable is the closure of the states reached after
// delay image steps from the joint initial state — the states on which
// delayed replacement with prefix delay requires equal outputs. Pass the
// source as a and the implementation as b: b's latches go first in the
// variable order, which keeps the products of Table I's flow outputs
// within the node limit (DESIGN.md §9). The order changes the cost, never
// the answer. The latch limit applies to both machines together, and
// the node limit holds from the first node, with no staged budget. It
// opens no span, so its time stays with the caller's verification span;
// once the manager exists it emits one "reach_product" event on tr with
// the BDD node count, the computed-table hits and misses, the image steps
// taken and the outcome ("fixpoint", "node_limit", "budget" or "error").
func AnalyzeProduct(ctx context.Context, a, b *network.Network, p *network.Pairing, delay int, lim Limits, tr *obs.Tracer) (*Analysis, error) {
	return analyze(ctx, []*network.Network{a, b}, p.PI, delay, lim, lim.MaxBDDNodes, tr)
}

// analyze runs the analysis with the node limit at relNodes until the
// per-latch relations exist and at lim.MaxBDDNodes from there on.
func analyze(ctx context.Context, nets []*network.Network, piOfB []int, delay int, lim Limits, relNodes int, tr *obs.Tracer) (a *Analysis, err error) {
	L := 0
	for _, n := range nets {
		L += len(n.Latches)
	}
	if lim.MaxLatches > 0 && L > lim.MaxLatches {
		return nil, fmt.Errorf("reach: %d latches exceed the %d-latch limit: %w",
			L, lim.MaxLatches, ErrTooLarge)
	}
	nv := 2*L + len(nets[0].PIs)
	m := bdd.New(nv)
	m.MaxNodes = relNodes
	staged := relNodes != lim.MaxBDDNodes // cleared once the full limit holds
	product := len(nets) > 1
	var sp *obs.Span // nil for a product: see AnalyzeProduct
	if !product {
		sp = tr.Begin("reach.analyze")
		defer sp.End()
	}
	depth := 0
	defer func() {
		r := recover()
		st := m.Stats()
		if r != nil {
			if r != bdd.ErrNodeLimit {
				panic(r)
			}
			limit := fmt.Sprintf("limit %d", lim.MaxBDDNodes)
			if staged {
				limit = fmt.Sprintf("relation stage %d of limit %d", relNodes, lim.MaxBDDNodes)
				sp.Add("reach_setup_nodes", int64(st.Nodes))
				sp.Add("reach_stage_refused", 1)
			}
			a, err = nil, fmt.Errorf("reach: state space too large: %d BDD nodes for %d latches after %d image steps (%s): %w",
				st.Nodes, L, depth, limit, ErrTooLarge)
		}
		if product {
			tr.Event("reach_product", map[string]any{
				"bdd_nodes": st.Nodes, "bdd_cache_hits": st.CacheHits, "bdd_cache_misses": st.CacheMisses,
				"depth": depth, "outcome": outcome(err),
			})
			return
		}
		sp.Add("reach_iterations", int64(depth))
		sp.Add("bdd_nodes", int64(st.PeakNodes))
		sp.Add("bdd_cache_hits", st.CacheHits)
		sp.Add("bdd_cache_misses", st.CacheMisses)
	}()

	a = &Analysis{M: m}
	first := 0 // overall index of the machine's first latch
	for _, n := range nets {
		mc := &Machine{
			N:       n,
			CurVar:  make([]int, len(n.Latches)),
			NextVar: make([]int, len(n.Latches)),
			InVar:   make([]int, len(n.PIs)),
			NodeFn:  make(map[*network.Node]bdd.Ref),
		}
		for i := range n.Latches {
			mc.CurVar[i] = 2 * (first + i)
			mc.NextVar[i] = 2*(first+i) + 1
		}
		first += len(n.Latches)
		a.Machines = append(a.Machines, mc)
	}
	for j := range nets[0].PIs {
		a.Machines[0].InVar[j] = 2*L + j
		if piOfB != nil {
			a.Machines[1].InVar[piOfB[j]] = 2*L + j
		}
	}
	m.SetOrder(levelOrder(a.Machines, nv))
	for _, mc := range a.Machines {
		if err := mc.buildNodeFns(ctx, m); err != nil {
			return nil, err
		}
	}

	// Initial state: conjunction of defined latch values (X unconstrained),
	// one machine at a time.
	init := bdd.True
	for _, mc := range a.Machines {
		s := bdd.True
		for i, l := range mc.N.Latches {
			switch l.Init {
			case network.V0:
				s = m.And(s, m.NVar(mc.CurVar[i]))
			case network.V1:
				s = m.And(s, m.Var(mc.CurVar[i]))
			}
		}
		init = m.And(init, s)
	}
	a.Init = init

	// Per-latch relations next_i ↔ δ_i, clustered with an early-
	// quantification schedule; current-state and input vars are
	// quantified, next-state vars renamed to current.
	parts := make([]bdd.Ref, 0, L)
	quant := make([]bool, nv)
	perm := make([]int, nv)
	for i := range perm {
		perm[i] = i
	}
	for _, mc := range a.Machines {
		for i, l := range mc.N.Latches {
			parts = append(parts, m.Xnor(m.Var(mc.NextVar[i]), mc.NodeFn[l.Driver]))
			quant[mc.CurVar[i]] = true
			perm[mc.NextVar[i]], perm[mc.CurVar[i]] = mc.CurVar[i], mc.NextVar[i]
		}
		for _, v := range mc.InVar {
			quant[v] = true
		}
	}
	m.MaxNodes, staged = lim.MaxBDDNodes, false
	trel := BuildTransRel(m, parts, quant, perm, DefaultClusterNodes)
	sp.Add("reach_clusters", int64(trel.NumClusters()))
	sp.Add("reach_quant_schedule_len", int64(trel.ScheduleLen()))
	sp.Max("reach_cluster_peak_nodes", int64(trel.PeakClusterNodes()))
	sp.Add("reach_setup_nodes", int64(m.Size()))

	frontier := init
	for k := 0; k < delay; k++ {
		if cerr := guard.Check(ctx, "reach.analyze"); cerr != nil {
			return nil, fmt.Errorf("reach: prefix traversal interrupted at cycle %d: %w", k, cerr)
		}
		frontier = trel.Image(m, frontier)
	}
	reached := frontier
	peak := 0 // largest frontier, in internal nodes
	for ; ; depth++ {
		if cerr := guard.Check(ctx, "reach.analyze"); cerr != nil {
			return nil, fmt.Errorf("reach: fixpoint interrupted after %d image steps: %w", depth, cerr)
		}
		// Frontier sizes are trace output only: an untraced analysis, or
		// a product, skips the walk over every frontier.
		if sp != nil {
			fn := m.NodeCount(frontier)
			peak = max(peak, fn)
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
	sp.Max("reach_frontier_peak_nodes", int64(peak))
	return a, nil
}

// outcome names how an analysis ended, for the reach_product event.
func outcome(err error) string {
	switch {
	case err == nil:
		return "fixpoint"
	case errors.Is(err, ErrTooLarge):
		return "node_limit"
	case errors.Is(err, guard.ErrBudget):
		return "budget"
	}
	return "error"
}

// buildNodeFns computes the BDD over current-state and input vars for every
// node in the cone of influence of a latch data input or a primary output;
// logic feeding neither (dead cones left behind by other passes) never
// reaches the BDD manager. A malformed network (a combinational cycle) is
// an error, not a panic.
func (mc *Machine) buildNodeFns(ctx context.Context, m *bdd.Manager) error {
	for j, p := range mc.N.PIs {
		mc.NodeFn[p] = m.Var(mc.InVar[j])
	}
	for i, l := range mc.N.Latches {
		mc.NodeFn[l.Output] = m.Var(mc.CurVar[i])
	}
	order, err := mc.N.TopoOrder()
	if err != nil {
		return fmt.Errorf("reach: %s: %w", mc.N.Name, err)
	}
	need := coneOfInfluence(mc.N)
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
				fiRef := mc.NodeFn[v.Fanins[pin]]
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
		mc.NodeFn[v] = f
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

// UnreachableDC projects the reachable set of a one-network analysis onto
// the given latch positions and returns the complement as a SOP cover over
// len(latchIdx) variables: cover variable k corresponds to latchIdx[k]. A
// partial state assignment is a don't care only if every completion of it
// is unreachable, so the projection quantifies the other latches
// existentially before complementing.
func (a *Analysis) UnreachableDC(latchIdx []int) *logic.Cover {
	keep := make(map[int]bool, len(latchIdx))
	for _, i := range latchIdx {
		keep[i] = true
	}
	cur := a.Machines[0].CurVar
	quant := make([]bool, a.M.NumVars())
	for i, v := range cur {
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
		varMap[cur[i]] = k
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
