package reach_test

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/sim"
)

// explicitReach is the explicit-state reference for Analyze: a breadth-
// first search over all 2^L states × 2^PI inputs, stepped with the scalar
// simulator. A latch initialised to X may start at either value, so the
// initial layer holds every completion of the declared init vector. A
// state is a bitmask, bit i holding latch i. It returns the reachable set,
// the fixpoint depth as Analyze counts it (image steps that found new
// states), the BFS frontiers (the initial set first) and, per frontier,
// the set of all its successors.
func explicitReach(t *testing.T, n *network.Network) (reached map[int]bool, depth int, frontiers [][]int, succs []map[int]bool) {
	t.Helper()
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	L, P := len(n.Latches), len(n.PIs)
	var init []int
	for st := 0; st < 1<<L; st++ {
		ok := true
		for i, l := range n.Latches {
			bit := st>>i&1 == 1
			if (l.Init == network.V0 && bit) || (l.Init == network.V1 && !bit) {
				ok = false
				break
			}
		}
		if ok {
			init = append(init, st)
		}
	}
	reached = make(map[int]bool)
	for _, st := range init {
		reached[st] = true
	}
	state := make([]network.Value, L)
	in := make([]bool, P)
	for frontier := init; ; depth++ {
		frontiers = append(frontiers, frontier)
		succ := make(map[int]bool)
		succs = append(succs, succ)
		var fresh []int
		for _, st := range frontier {
			for iv := 0; iv < 1<<P; iv++ {
				for i := range state {
					state[i] = network.V0
					if st>>i&1 == 1 {
						state[i] = network.V1
					}
				}
				for j := range in {
					in[j] = iv>>j&1 == 1
				}
				s.SetState(state)
				s.StepBits(in)
				next := 0
				for i, v := range s.State() {
					if v == network.V1 {
						next |= 1 << i
					}
				}
				succ[next] = true
				if !reached[next] {
					reached[next] = true
					fresh = append(fresh, next)
				}
			}
		}
		if len(fresh) == 0 {
			return reached, depth, frontiers, succs
		}
		frontier = fresh
	}
}

// stateSet builds the BDD over the current-state variables of a (a
// one-network analysis) holding exactly the given bitmask states.
func stateSet(a *reach.Analysis, states map[int]bool) bdd.Ref {
	m := a.M
	set := bdd.False
	for st := range states {
		cube := bdd.True
		for i, v := range a.Machines[0].CurVar {
			if st>>i&1 == 1 {
				cube = m.And(cube, m.Var(v))
			} else {
				cube = m.And(cube, m.NVar(v))
			}
		}
		set = m.Or(set, cube)
	}
	return set
}

// TestPropertyAnalyzeMatchesExplicitState is the correctness anchor of the
// implicit state enumeration: over random FSMs (every even seed with one
// X-initialised latch), Analyze must agree with explicit-state BFS on the
// fixpoint depth, the state count and the membership of every one of the
// 2^L states. On every BFS frontier, the images through the finest
// (granularity 1) and default clustered transition relation, and the
// monolithic image built here from the full conjunction, must be the same
// BDD and hold exactly the explicit successors.
func TestPropertyAnalyzeMatchesExplicitState(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		src := bench.Synthetic(bench.Profile{
			Name: "p", PIs: 3, POs: 2, FFs: 5, Gates: 14, Seed: seed,
		})
		L := len(src.Latches)
		if seed%2 == 0 {
			src.Latches[int(seed)%L].Init = network.VX
		}
		reached, depth, frontiers, succs := explicitReach(t, src)
		a, err := reach.Analyze(context.Background(), src, reach.DefaultLimits, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Depth != depth {
			t.Errorf("seed %d: depth %d, explicit BFS %d", seed, a.Depth, depth)
		}
		if got := a.NumReachable(); got != float64(len(reached)) {
			t.Errorf("seed %d: %v reachable states, explicit BFS %d", seed, got, len(reached))
		}
		mc := a.Machines[0]
		env := make([]bool, a.M.NumVars())
		for st := 0; st < 1<<L; st++ {
			for i, v := range mc.CurVar {
				env[v] = st>>i&1 == 1
			}
			if a.M.Eval(a.Reachable, env) != reached[st] {
				t.Fatalf("seed %d: state %0*b membership differs from explicit BFS", seed, L, st)
			}
		}

		// The relation Analyze builds, at two granularities and as one
		// monolithic conjunction, in its own manager: BDDs are canonical,
		// so equal sets are equal Refs.
		m := a.M
		parts := make([]bdd.Ref, L)
		for i, l := range src.Latches {
			parts[i] = m.Xnor(m.Var(mc.NextVar[i]), mc.NodeFn[l.Driver.ID])
		}
		quant := make([]bool, m.NumVars())
		perm := make([]int, m.NumVars())
		for v := range perm {
			perm[v] = v
		}
		for i := range mc.CurVar {
			quant[mc.CurVar[i]] = true
			perm[mc.CurVar[i]], perm[mc.NextVar[i]] = mc.NextVar[i], mc.CurVar[i]
		}
		for _, v := range mc.InVar {
			quant[v] = true
		}
		mono := bdd.True
		for _, p := range parts {
			mono = m.And(mono, p)
		}
		granularities := []int{1, reach.DefaultClusterNodes}
		rels := make([]*reach.TransRel, len(granularities))
		for i, g := range granularities {
			rels[i] = reach.BuildTransRel(m, parts, quant, perm, g)
		}
		for k, frontier := range frontiers {
			inFront := make(map[int]bool, len(frontier))
			for _, st := range frontier {
				inFront[st] = true
			}
			from, want := stateSet(a, inFront), stateSet(a, succs[k])
			if m.Permute(m.AndExists(from, mono, quant), perm) != want {
				t.Errorf("seed %d frontier %d: monolithic image differs from the explicit successors", seed, k)
			}
			for i, rel := range rels {
				if rel.Image(m, from) != want {
					t.Errorf("seed %d frontier %d: image at granularity %d differs from the explicit successors",
						seed, k, granularities[i])
				}
			}
		}
	}
}
