// Package seqverify checks sequential equivalence of two networks by
// product-machine reachability, with the paper's *delayed replacement*
// semantics (Singhal et al.): the circuits must produce identical outputs
// on every input sequence from cycle k onward, where k is the number of
// atomic forward retiming moves across fanout stems. k = 0 is safe
// replacement (classic equivalence from the initial states).
package seqverify

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/sweep"
)

// ErrTooLarge mirrors reach.ErrTooLarge for oversized product machines.
var ErrTooLarge = reach.ErrTooLarge

// Options configures the check.
type Options struct {
	// Delay is the delayed-replacement prefix length k.
	Delay int
	// Sweep enables the SAT-based fallback: when the product machine is
	// too large for exact reachability, Check proves equivalence by
	// K-induction over simulation-refined equivalence classes instead of
	// giving up.
	Sweep bool
	// InductionK is the induction depth of the sweep fallback (default 1).
	InductionK int
	// Workers bounds the sweep's parallel proof shards.
	Workers int
	// Tracer receives sweep spans; nil is valid.
	Tracer *obs.Tracer
}

// Verdict states how equivalence was established.
type Verdict string

const (
	// VerdictExact is a BDD product-machine reachability proof.
	VerdictExact Verdict = "exact"
	// VerdictInduction is a SAT-based K-induction proof over the product
	// AIG — used automatically when exact reachability is too large.
	VerdictInduction Verdict = "proved-by-induction"
)

// Check establishes sequential equivalence and reports how: exact BDD
// reachability when the product fits, otherwise (with opt.Sweep) a
// K-induction proof on the product AIG. A returned error that matches
// errors.Is(err, ErrTooLarge) means neither engine could decide — callers
// may still fall back to simulation-based spot checking. Any other error
// is a genuine refutation or resource failure.
func Check(ctx context.Context, a, b *network.Network, opt Options) (Verdict, error) {
	err := Equivalent(ctx, a, b, opt)
	if err == nil {
		return VerdictExact, nil
	}
	if !opt.Sweep || !errors.Is(err, ErrTooLarge) {
		return "", err
	}
	_, serr := sweep.ProveEquivalent(ctx, a, b, opt.Delay, sweep.Options{
		K:       opt.InductionK,
		Workers: opt.Workers,
		Tracer:  opt.Tracer,
	})
	if serr == nil {
		return VerdictInduction, nil
	}
	if errors.Is(serr, sweep.ErrUnknown) {
		// Inconclusive, not refuted: keep the ErrTooLarge identity so
		// callers can still drop to their simulation fallback.
		return "", fmt.Errorf("seqverify: %v: %w", serr, ErrTooLarge)
	}
	return "", fmt.Errorf("seqverify: %w", serr)
}

type machine struct {
	n       *network.Network
	curVar  []int
	nextVar []int
	nodeFn  map[*network.Node]bdd.Ref
}

// Equivalent returns nil if the two networks are sequentially equivalent
// under the configured delayed-replacement prefix. POs and PIs are matched
// by name. A non-nil error describes the mismatch or a resource failure.
// Every image step of the product-machine traversal checks ctx and returns
// a typed guard budget error (errors.Is(err, guard.ErrBudget)) once the
// deadline passes.
func Equivalent(ctx context.Context, a, b *network.Network, opt Options) (err error) {
	if len(a.Latches)+len(b.Latches) > reach.DefaultLimits.MaxLatches {
		return ErrTooLarge
	}
	if len(a.PIs) != len(b.PIs) {
		return fmt.Errorf("seqverify: PI counts differ (%d vs %d)", len(a.PIs), len(b.PIs))
	}
	// Match PIs of b by name, falling back to position.
	biByName := make(map[string]int, len(b.PIs))
	for i, p := range b.PIs {
		biByName[p.Name] = i
	}
	piOfB := make([]int, len(a.PIs))
	for i, p := range a.PIs {
		if j, ok := biByName[p.Name]; ok {
			piOfB[i] = j
		} else {
			piOfB[i] = i
		}
	}
	// Match POs by name.
	type poPair struct{ pa, pb *network.PO }
	var pairs []poPair
	for _, pa := range a.POs {
		var found *network.PO
		for _, pb := range b.POs {
			if pb.Name == pa.Name {
				found = pb
				break
			}
		}
		if found == nil {
			return fmt.Errorf("seqverify: PO %q missing in %s", pa.Name, b.Name)
		}
		pairs = append(pairs, poPair{pa, found})
	}

	la, lb := len(a.Latches), len(b.Latches)
	ni := len(a.PIs)
	nv := ni + 2*la + 2*lb
	m := bdd.New(nv)
	m.MaxNodes = reach.DefaultLimits.MaxBDDNodes
	defer func() {
		if r := recover(); r != nil {
			if r == bdd.ErrNodeLimit {
				err = ErrTooLarge
				return
			}
			panic(r)
		}
	}()

	ma := &machine{n: a, curVar: make([]int, la), nextVar: make([]int, la)}
	mb := &machine{n: b, curVar: make([]int, lb), nextVar: make([]int, lb)}
	for i := 0; i < la; i++ {
		ma.curVar[i] = ni + 2*i
		ma.nextVar[i] = ni + 2*i + 1
	}
	for i := 0; i < lb; i++ {
		mb.curVar[i] = ni + 2*la + 2*i
		mb.nextVar[i] = ni + 2*la + 2*i + 1
	}
	inVarA := make([]int, ni)
	inVarB := make([]int, ni)
	for i := 0; i < ni; i++ {
		inVarA[i] = i
		inVarB[piOfB[i]] = i
	}
	m.SetOrder(productLevelOrder(a, b, piOfB, inVarA, ma, mb, nv))
	if err := buildFns(m, ma, inVarA); err != nil {
		return fmt.Errorf("seqverify: %s: %w", a.Name, err)
	}
	if err := buildFns(m, mb, inVarB); err != nil {
		return fmt.Errorf("seqverify: %s: %w", b.Name, err)
	}

	initSet := func(mc *machine) bdd.Ref {
		s := bdd.True
		for i, l := range mc.n.Latches {
			switch l.Init {
			case network.V0:
				s = m.And(s, m.NVar(mc.curVar[i]))
			case network.V1:
				s = m.And(s, m.Var(mc.curVar[i]))
			}
		}
		return s
	}
	front := m.And(initSet(ma), initSet(mb))

	// Per-latch relations of both machines, clustered with an early-
	// quantification schedule.
	parts := make([]bdd.Ref, 0, la+lb)
	for i, l := range a.Latches {
		parts = append(parts, m.Xnor(m.Var(ma.nextVar[i]), ma.nodeFn[l.Driver]))
	}
	for i, l := range b.Latches {
		parts = append(parts, m.Xnor(m.Var(mb.nextVar[i]), mb.nodeFn[l.Driver]))
	}

	quant := make([]bool, nv)
	for i := 0; i < ni; i++ {
		quant[i] = true
	}
	for _, v := range ma.curVar {
		quant[v] = true
	}
	for _, v := range mb.curVar {
		quant[v] = true
	}
	perm := make([]int, nv)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < la; i++ {
		perm[ma.nextVar[i]], perm[ma.curVar[i]] = ma.curVar[i], ma.nextVar[i]
	}
	for i := 0; i < lb; i++ {
		perm[mb.nextVar[i]], perm[mb.curVar[i]] = mb.curVar[i], mb.nextVar[i]
	}
	trel := reach.BuildTransRel(m, parts, quant, perm, reach.DefaultClusterNodes)

	// Advance the frontier through the delayed-replacement prefix.
	for k := 0; k < opt.Delay; k++ {
		if cerr := guard.Check(ctx, "seqverify.equivalent"); cerr != nil {
			return fmt.Errorf("seqverify: prefix traversal interrupted at cycle %d: %w", k, cerr)
		}
		front = trel.Image(m, front)
	}
	// Closure from the post-prefix frontier.
	reached := front
	for {
		if cerr := guard.Check(ctx, "seqverify.equivalent"); cerr != nil {
			return fmt.Errorf("seqverify: reachability closure interrupted: %w", cerr)
		}
		img := trel.Image(m, front)
		fresh := m.And(img, m.Not(reached))
		if fresh == bdd.False {
			break
		}
		reached = m.Or(reached, fresh)
		front = fresh
	}

	// Output equality on all reached product states, all inputs.
	for _, pp := range pairs {
		diff := m.Xor(ma.nodeFn[pp.pa.Driver], mb.nodeFn[pp.pb.Driver])
		bad := m.And(reached, diff)
		if bad != bdd.False {
			witness := m.PickCube(bad)
			return fmt.Errorf("seqverify: PO %q differs (delay=%d); witness %s",
				pp.pa.Name, opt.Delay, witnessString(witness, ni, la, lb))
		}
	}
	return nil
}

// buildFns computes the BDD of every node in the cone of influence of a
// latch data input or primary output. A malformed network (e.g. a
// combinational cycle handed in by a buggy caller) is reported as an error
// rather than a panic, so verification can never crash the process.
func buildFns(m *bdd.Manager, mc *machine, inVar []int) error {
	mc.nodeFn = make(map[*network.Node]bdd.Ref)
	for i, p := range mc.n.PIs {
		mc.nodeFn[p] = m.Var(inVar[i])
	}
	for i, l := range mc.n.Latches {
		mc.nodeFn[l.Output] = m.Var(mc.curVar[i])
	}
	order, err := mc.n.TopoOrder()
	if err != nil {
		return fmt.Errorf("invalid network: %w", err)
	}
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
	for _, l := range mc.n.Latches {
		mark(l.Driver)
	}
	for _, po := range mc.n.POs {
		mark(po.Driver)
	}
	for _, v := range order {
		if !need[v] {
			continue
		}
		f := bdd.False
		for _, c := range v.Func.Cubes {
			cube := bdd.True
			for pin := 0; pin < c.N; pin++ {
				fi := mc.nodeFn[v.Fanins[pin]]
				switch c.Lit(pin) {
				case logic.LitPos:
					cube = m.And(cube, fi)
				case logic.LitNeg:
					cube = m.And(cube, m.Not(fi))
				case logic.LitNone:
					cube = bdd.False
				}
				if cube == bdd.False {
					break // a void literal (or contradiction) kills the cube
				}
			}
			f = m.Or(f, cube)
		}
		mc.nodeFn[v] = f
	}
	return nil
}

// productLevelOrder merges the topology-driven orders of the two machines
// into one static order for the product manager: each machine's latches
// and the shared PIs are keyed by their normalized TopoLeafRanks discovery
// rank (a PI takes the earlier of its two ranks), so corresponding state
// variables of structurally similar machines interleave. Each latch's
// cur/next pair stays adjacent.
func productLevelOrder(a, b *network.Network, piOfB []int, inVarA []int, ma, mb *machine, nv int) []int {
	laR, paR, fa := reach.TopoLeafRanks(a)
	lbR, pbR, fb := reach.TopoLeafRanks(b)
	denomA := float64(fa + len(laR) + len(paR) + 1)
	denomB := float64(fb + len(lbR) + len(pbR) + 1)
	norm := func(r, fallback int, denom float64) float64 {
		if r < 0 {
			r = fallback
		}
		return float64(r) / denom
	}
	type ent struct {
		key  float64
		kind int // 0 PI, 1 latch of a, 2 latch of b
		idx  int
	}
	ents := make([]ent, 0, len(paR)+len(laR)+len(lbR))
	for i := range paR {
		ka := norm(paR[i], fa+len(laR)+i, denomA)
		kb := norm(pbR[piOfB[i]], fb+len(lbR)+piOfB[i], denomB)
		if kb < ka {
			ka = kb
		}
		ents = append(ents, ent{ka, 0, i})
	}
	for i := range laR {
		ents = append(ents, ent{norm(laR[i], fa+i, denomA), 1, i})
	}
	for i := range lbR {
		ents = append(ents, ent{norm(lbR[i], fb+i, denomB), 2, i})
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
		switch e.kind {
		case 0:
			order = append(order, inVarA[e.idx])
		case 1:
			order = append(order, ma.curVar[e.idx], ma.nextVar[e.idx])
		default:
			order = append(order, mb.curVar[e.idx], mb.nextVar[e.idx])
		}
	}
	return order
}

func witnessString(w []logic.Lit, ni, la, lb int) string {
	s := "in="
	for i := 0; i < ni; i++ {
		s += litCh(w[i])
	}
	s += " stateA="
	for i := 0; i < la; i++ {
		s += litCh(w[ni+2*i])
	}
	s += " stateB="
	for i := 0; i < lb; i++ {
		s += litCh(w[ni+2*la+2*i])
	}
	return s
}

func litCh(l logic.Lit) string {
	switch l {
	case logic.LitNeg:
		return "0"
	case logic.LitPos:
		return "1"
	default:
		return "-"
	}
}
