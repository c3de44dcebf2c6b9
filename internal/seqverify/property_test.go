package seqverify_test

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/retime"
	"repro/internal/seqverify"
	"repro/internal/sim"
)

// explicitEquivalent is the explicit-state reference for Equivalent: it
// enumerates the product of a and b from every completion of the two init
// vectors (an X latch starts at either value), steps delay cycles over all
// inputs, then searches the closure and reports whether every reached
// state agrees on every name-paired PO under every input. PIs pair by
// name, so b may declare them in any order. A product state is a bitmask:
// a's latches in the low bits, then b's.
func explicitEquivalent(t *testing.T, a, b *network.Network, delay int) bool {
	t.Helper()
	sa, err := sim.New(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.New(b)
	if err != nil {
		t.Fatal(err)
	}
	la, lb, P := len(a.Latches), len(b.Latches), len(a.PIs)
	piOfB := make([]int, P) // position in b.PIs of a's PI i
	for i, p := range a.PIs {
		piOfB[i] = slices.IndexFunc(b.PIs, func(q *network.Node) bool { return q.Name == p.Name })
	}
	poOfB := make([]int, len(a.POs))
	for i, p := range a.POs {
		poOfB[i] = slices.IndexFunc(b.POs, func(q *network.PO) bool { return q.Name == p.Name })
	}
	latches := append(append([]*network.Latch(nil), a.Latches...), b.Latches...)
	var front []int
	for st := 0; st < 1<<len(latches); st++ {
		ok := true
		for i, l := range latches {
			bit := st>>i&1 == 1
			if (l.Init == network.V0 && bit) || (l.Init == network.V1 && !bit) {
				ok = false
				break
			}
		}
		if ok {
			front = append(front, st)
		}
	}
	load := func(s *sim.Simulator, st, first, n int) {
		v := make([]network.Value, n)
		for i := range v {
			v[i] = network.V0
			if st>>(first+i)&1 == 1 {
				v[i] = network.V1
			}
		}
		s.SetState(v)
	}
	store := func(s *sim.Simulator, first int) int {
		st := 0
		for i, v := range s.State() {
			if v == network.V1 {
				st |= 1 << (first + i)
			}
		}
		return st
	}
	inA, inB := make([]bool, P), make([]bool, P)
	// step returns the successor of st under input iv and whether the
	// paired POs agree on that transition.
	step := func(st, iv int) (int, bool) {
		for i := range inA {
			inA[i] = iv>>i&1 == 1
			inB[piOfB[i]] = inA[i]
		}
		load(sa, st, 0, la)
		load(sb, st, la, lb)
		oa, ob := sa.StepBits(inA), sb.StepBits(inB)
		eq := true
		for i, j := range poOfB {
			eq = eq && oa[i] == ob[j]
		}
		return store(sa, 0) | store(sb, la), eq
	}
	for k := 0; k < delay; k++ {
		next := map[int]bool{}
		for _, st := range front {
			for iv := 0; iv < 1<<P; iv++ {
				s, _ := step(st, iv)
				next[s] = true
			}
		}
		front = front[:0]
		for s := range next {
			front = append(front, s)
		}
	}
	seen := map[int]bool{}
	for _, st := range front {
		seen[st] = true
	}
	for len(front) > 0 {
		st := front[len(front)-1]
		front = front[:len(front)-1]
		for iv := 0; iv < 1<<P; iv++ {
			s, eq := step(st, iv)
			if !eq {
				return false
			}
			if !seen[s] {
				seen[s] = true
				front = append(front, s)
			}
		}
	}
	return true
}

// flipCoverBit clones n and flips one positional bit of one literal in one
// cube of a random logic node.
func flipCoverBit(n *network.Network, r *rand.Rand) *network.Network {
	m := n.Clone()
	var logicNodes []*network.Node
	for _, v := range m.Nodes() {
		if v.Kind == network.KindLogic && len(v.Fanins) > 0 && len(v.Func.Cubes) > 0 {
			logicNodes = append(logicNodes, v)
		}
	}
	v := logicNodes[r.Intn(len(logicNodes))]
	f := v.Func.Clone()
	c := f.Cubes[r.Intn(len(f.Cubes))]
	pin := r.Intn(c.N)
	c.SetLit(pin, c.Lit(pin)^logic.Lit(1<<r.Intn(2)))
	m.SetFunction(v, v.Fanins, f)
	return m
}

// forwardRetimed clones n and makes one atomic forward move, if some node
// is forward-retimable; odd seeds also invert the new register's initial
// value, which only the first cycle can observe directly.
func forwardRetimed(t *testing.T, n *network.Network, seed int64) *network.Network {
	t.Helper()
	m := n.Clone()
	for _, v := range m.Nodes() {
		if retime.ForwardRetimable(m, v) {
			l, err := retime.Forward(m, v)
			if err != nil {
				t.Fatal(err)
			}
			if seed%2 == 1 && l.Init != network.VX {
				l.Init = 1 - l.Init
			}
			return m
		}
	}
	return nil
}

// forEachRandomPair calls f on the random small FSM pairs of the property
// suites: a against a clone with one cover bit flipped, and a against a
// forward-retimed copy. b declares its PIs in reverse order, so the
// variable each PI of b reads is exercised.
func forEachRandomPair(t *testing.T, f func(seed int64, kind string, a, b *network.Network)) {
	t.Helper()
	for seed := int64(1); seed <= 24; seed++ {
		a := bench.Synthetic(bench.Profile{Name: "a", PIs: 3, POs: 2, FFs: 3, Gates: 10, Seed: seed})
		if seed%3 == 0 {
			a.Latches[int(seed)%len(a.Latches)].Init = network.VX
		}
		r := rand.New(rand.NewSource(seed))
		b := flipCoverBit(a, r)
		slices.Reverse(b.PIs)
		f(seed, "flipped", a, b)
		if b := forwardRetimed(t, a, seed); b != nil {
			slices.Reverse(b.PIs)
			f(seed, "retimed", a, b)
		}
	}
}

// TestPropertyEquivalentMatchesExplicitProduct pins the product-machine
// traversal against explicit-state search: over the random pairs,
// Equivalent must return nil exactly when the explicit search of the
// product finds equal outputs after the prefix, at delays 0, 1 and 2. The
// suite must contain pairs refuted and proved, and pairs whose verdict
// depends on the prefix.
func TestPropertyEquivalentMatchesExplicitProduct(t *testing.T) {
	var proved, refuted, prefixMatters int
	forEachRandomPair(t, func(seed int64, kind string, a, b *network.Network) {
		var verdicts []bool
		for delay := 0; delay <= 2; delay++ {
			want := explicitEquivalent(t, a, b, delay)
			err := seqverify.Equivalent(context.Background(), a, b, seqverify.Options{Delay: delay}, nil)
			if (err == nil) != want {
				t.Errorf("seed %d %s delay %d: Equivalent = %v, explicit search equivalent = %v",
					seed, kind, delay, err, want)
			}
			if want {
				proved++
			} else {
				refuted++
			}
			verdicts = append(verdicts, want)
		}
		if verdicts[0] != verdicts[1] || verdicts[1] != verdicts[2] {
			prefixMatters++
		}
	})
	if proved == 0 || refuted == 0 || prefixMatters == 0 {
		t.Fatalf("suite lacks power: %d proved, %d refuted, %d pairs whose verdict depends on the prefix",
			proved, refuted, prefixMatters)
	}
	t.Logf("%d proved, %d refuted, %d pairs whose verdict depends on the prefix", proved, refuted, prefixMatters)
}

// reachedStates lists the states a product analysis reached, each as the
// pair of latch bitmasks (state of a, state of the other machine),
// whichever side of the product a was passed on.
func reachedStates(an *reach.Analysis, a *network.Network) map[[2]int]bool {
	ma, mo := an.Machines[0], an.Machines[1]
	if ma.N != a {
		ma, mo = mo, ma
	}
	la := len(ma.CurVar)
	env := make([]bool, an.M.NumVars())
	out := map[[2]int]bool{}
	for st := 0; st < 1<<(la+len(mo.CurVar)); st++ {
		for i, v := range ma.CurVar {
			env[v] = st>>i&1 == 1
		}
		for i, v := range mo.CurVar {
			env[v] = st>>(la+i)&1 == 1
		}
		if an.M.Eval(an.Reachable, env) {
			out[[2]int{st & (1<<la - 1), st >> la}] = true
		}
	}
	return out
}

// TestPropertyProductOrderSymmetric: the product's variable order puts the
// second machine's latches first, so swapping the sides changes the BDDs
// the check builds but must never change its answer. Over the random
// pairs, Equivalent(a, b) and Equivalent(b, a) agree at delays 0, 1 and
// 2, and AnalyzeProduct reaches the same product states both ways.
func TestPropertyProductOrderSymmetric(t *testing.T) {
	ctx := context.Background()
	var proved, refuted int
	forEachRandomPair(t, func(seed int64, kind string, a, b *network.Network) {
		pab, err := network.Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		pba, err := network.Pair(b, a)
		if err != nil {
			t.Fatal(err)
		}
		for delay := 0; delay <= 2; delay++ {
			opt := seqverify.Options{Delay: delay}
			eab, eba := seqverify.Equivalent(ctx, a, b, opt, nil), seqverify.Equivalent(ctx, b, a, opt, nil)
			if (eab == nil) != (eba == nil) {
				t.Errorf("seed %d %s delay %d: Equivalent(a, b) = %v, Equivalent(b, a) = %v", seed, kind, delay, eab, eba)
			}
			if eab == nil {
				proved++
			} else {
				refuted++
			}
			ab, err := reach.AnalyzeProduct(ctx, a, b, pab, delay, reach.DefaultLimits, nil)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := reach.AnalyzeProduct(ctx, b, a, pba, delay, reach.DefaultLimits, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sab, sba := reachedStates(ab, a), reachedStates(ba, a); !maps.Equal(sab, sba) {
				t.Errorf("seed %d %s delay %d: AnalyzeProduct(a, b) reached %d states, (b, a) %d, or other ones",
					seed, kind, delay, len(sab), len(sba))
			}
		}
	})
	if proved == 0 || refuted == 0 {
		t.Fatalf("suite lacks power: %d proved, %d refuted", proved, refuted)
	}
}
