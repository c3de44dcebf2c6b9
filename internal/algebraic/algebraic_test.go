package algebraic

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/seqverify"
	"repro/internal/sim"
	"repro/internal/timing"
)

func TestDivideCube(t *testing.T) {
	c, _ := logic.ParseCube("110-")
	d, _ := logic.ParseCube("1---")
	q, ok := DivideCube(c, d, 4)
	if !ok || q.String() != "-10-" {
		t.Fatalf("quotient %v ok=%v", q, ok)
	}
	d2, _ := logic.ParseCube("0---")
	if _, ok := DivideCube(c, d2, 4); ok {
		t.Fatal("conflicting literal must not divide")
	}
}

func TestDivide(t *testing.T) {
	// f = a·c + a·d + b·c + b·d + e ; d = a + b → q = c + d, r = e.
	// Vars: a,b,c,d,e = 0..4.
	f := logic.MustParseCover(5, "1-1--", "1--1-", "-11--", "-1-1-", "----1")
	d := logic.MustParseCover(5, "1----", "-1---")
	q, r := Divide(f, d)
	wantQ := logic.MustParseCover(5, "--1--", "---1-")
	if !q.EquivalentTo(wantQ) {
		t.Fatalf("quotient:\n%v", q)
	}
	wantR := logic.MustParseCover(5, "----1")
	if !r.EquivalentTo(wantR) {
		t.Fatalf("remainder:\n%v", r)
	}
}

func TestDivideAlgebraicIdentity(t *testing.T) {
	// For random f,d: f == q·d + r as covers (set equality of cubes).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		f := randCover(rng, 5, 6)
		d := randCover(rng, 5, 2)
		if len(d.Cubes) == 0 {
			continue
		}
		q, r := Divide(f, d)
		recon := r.Clone()
		for _, qc := range q.Cubes {
			for _, dc := range d.Cubes {
				if p, ok := qc.And(dc); ok {
					recon.Add(p)
				}
			}
		}
		if !recon.EquivalentTo(f) {
			t.Fatalf("f != qd+r:\nf=%v\nd=%v\nq=%v\nr=%v", f, d, q, r)
		}
	}
}

func randCover(r *rand.Rand, n, maxCubes int) *logic.Cover {
	f := logic.NewCover(n)
	for i := 0; i < 1+r.Intn(maxCubes); i++ {
		c := logic.NewCube(n)
		for v := 0; v < n; v++ {
			switch r.Intn(3) {
			case 0:
				c.SetLit(v, logic.LitNeg)
			case 1:
				c.SetLit(v, logic.LitPos)
			}
		}
		f.Add(c)
	}
	return f
}

func TestCommonCubeAndCubeFree(t *testing.T) {
	f := logic.MustParseCover(4, "110-", "1-11")
	cc := CommonCube(f)
	if cc.String() != "1---" {
		t.Fatalf("common cube %v", cc)
	}
	if IsCubeFree(f) {
		t.Fatal("f is not cube-free")
	}
	g, cube := MakeCubeFree(f)
	if cube.String() != "1---" || !IsCubeFree(g) {
		t.Fatalf("MakeCubeFree: %v / %v", g, cube)
	}
}

func TestKernels(t *testing.T) {
	// f = a·c + a·d + b·c + b·d  — kernels include (a+b) and (c+d).
	f := logic.MustParseCover(4, "1-1-", "1--1", "-11-", "-1-1")
	ks := Kernels(f)
	foundAB, foundCD := false, false
	for _, k := range ks {
		key := CoverKey(k.K)
		if key == "-1--|1---" {
			foundAB = true
		}
		if key == "--1-|---1" || key == "---1|--1-" {
			foundCD = true
		}
	}
	if !foundAB || !foundCD {
		t.Fatalf("kernels missing: ab=%v cd=%v (%d kernels)", foundAB, foundCD, len(ks))
	}
}

func TestKernelsSingleCubeNone(t *testing.T) {
	f := logic.MustParseCover(3, "111")
	if ks := Kernels(f); len(ks) != 0 {
		t.Fatalf("single cube has no kernels, got %d", len(ks))
	}
}

// buildNet builds y = a·c + a·d + b·c + b·d, z = a·c + a·d (shares (c+d)).
func buildNet(t *testing.T) *network.Network {
	t.Helper()
	n := network.New("ext")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	d := n.AddPI("d")
	y := n.AddLogic("y", []*network.Node{a, b, c, d},
		logic.MustParseCover(4, "1-1-", "1--1", "-11-", "-1-1"))
	z := n.AddLogic("z", []*network.Node{a, c, d},
		logic.MustParseCover(3, "11-", "1-1"))
	n.AddPO("y", y)
	n.AddPO("z", z)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExtractKernels(t *testing.T) {
	n := buildNet(t)
	before := n.NumLits()
	got := ExtractKernels(n, 8)
	if got == 0 {
		t.Fatal("no divisor extracted")
	}
	if n.NumLits() >= before {
		t.Fatalf("no literal savings: %d -> %d", before, n.NumLits())
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	// Function must be preserved.
	m := buildNet(t)
	if err := bitsim.RandomEquivalent(m, n, 0, 100, 3, bitsim.Options{}); err != nil {
		t.Fatalf("extraction changed function: %v", err)
	}
}

func TestEliminate(t *testing.T) {
	n := network.New("elim")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLogic("g", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	h := n.AddLogic("h", []*network.Node{g}, logic.MustParseCover(1, "0"))
	n.AddPO("y", h)
	removed, err := Eliminate(context.Background(), n, 10)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("buffer-like node not eliminated")
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	// h must now compute NAND(a,b).
	s, _ := sim.New(n)
	for m := 0; m < 4; m++ {
		va, vb := m&1 != 0, m&2 != 0
		if got := s.StepBits([]bool{va, vb})[0]; got != !(va && vb) {
			t.Fatalf("NAND wrong at %v %v", va, vb)
		}
	}
}

func TestEliminateRespectsThreshold(t *testing.T) {
	// A shared big node should not be eliminated at threshold 0 (collapse
	// would duplicate it into 2 consumers).
	n := network.New("thr")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	g := n.AddLogic("g", []*network.Node{a, b, c},
		logic.MustParseCover(3, "11-", "1-1", "-11"))
	h1 := n.AddLogic("h1", []*network.Node{g, a}, logic.MustParseCover(2, "11"))
	h2 := n.AddLogic("h2", []*network.Node{g, b}, logic.MustParseCover(2, "1-", "-1"))
	n.AddPO("y1", h1)
	n.AddPO("y2", h2)
	if removed, err := Eliminate(context.Background(), n, 0); err != nil || removed != 0 {
		t.Fatalf("shared 6-literal node eliminated at threshold 0 (%d, %v)", removed, err)
	}
}

// TestEliminateCancelled: a cancelled context stops eliminate before it
// touches a candidate node, with a typed budget error and a valid network.
func TestEliminateCancelled(t *testing.T) {
	n := network.New("elim")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLogic("g", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	h := n.AddLogic("h", []*network.Node{g}, logic.MustParseCover(1, "0"))
	n.AddPO("y", h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	removed, err := Eliminate(ctx, n, 10)
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("Eliminate under a cancelled context: err = %v, want guard.ErrBudget", err)
	}
	if removed != 0 {
		t.Fatalf("Eliminate under a cancelled context removed %d nodes", removed)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeBalanced(t *testing.T) {
	n := network.New("dec")
	var pis []*network.Node
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		pis = append(pis, n.AddPI(name))
	}
	// A wide function: 3 cubes of 2-3 literals.
	f := logic.MustParseCover(6, "11----", "--111-", "0----1")
	g := n.AddLogic("g", pis, f)
	n.AddPO("y", g)
	ref := n.Clone()
	if err := DecomposeBalanced(n); err != nil {
		t.Fatal(err)
	}
	for _, v := range n.Nodes() {
		if v.Kind == network.KindLogic && len(v.Fanins) > 2 {
			t.Fatalf("node %s still has %d fanins", v.Name, len(v.Fanins))
		}
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if err := bitsim.RandomEquivalent(ref, n, 0, 200, 7, bitsim.Options{}); err != nil {
		t.Fatalf("decomposition changed function: %v", err)
	}
	// Balanced tree of a 3-literal AND plus OR chain: depth must be
	// logarithmic-ish, not the SOP-literal count.
	p, err := timing.Period(n)
	if err != nil {
		t.Fatal(err)
	}
	if p > 5 {
		t.Fatalf("decomposed depth %v too large", p)
	}
}

func TestOptimizeDelayPreservesSequentialBehaviour(t *testing.T) {
	// A small FSM: 2-bit counter with enable and carry out.
	n := network.New("seqopt")
	en := n.AddPI("en")
	l0 := n.AddLatch("s0", nil, network.V0)
	l1 := n.AddLatch("s1", nil, network.V0)
	d0 := n.AddLogic("d0", []*network.Node{l0.Output, en}, logic.MustParseCover(2, "10", "01"))
	t0 := n.AddLogic("t0", []*network.Node{l0.Output, en}, logic.MustParseCover(2, "11"))
	d1 := n.AddLogic("d1", []*network.Node{l1.Output, t0}, logic.MustParseCover(2, "10", "01"))
	cy := n.AddLogic("cy", []*network.Node{l1.Output, l0.Output, en}, logic.MustParseCover(3, "111"))
	l0.Driver = d0
	l1.Driver = d1
	n.AddPO("carry", cy)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	ref := n.Clone()
	if err := OptimizeDelay(context.Background(), n, nil); err != nil {
		t.Fatal(err)
	}
	if err := seqverify.Equivalent(context.Background(), ref, n, seqverify.Options{}, nil); err != nil {
		t.Fatalf("OptimizeDelay broke the FSM: %v", err)
	}
}

func TestDecomposeRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := network.New("rand")
		var pis []*network.Node
		for i := 0; i < 5; i++ {
			pis = append(pis, n.AddPI(string(rune('a'+i))))
		}
		f := randCover(rng, 5, 5)
		g := n.AddLogic("g", pis, f)
		n.AddPO("y", g)
		ref := n.Clone()
		if err := OptimizeDelay(context.Background(), n, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := bitsim.RandomEquivalent(ref, n, 0, 100, int64(trial), bitsim.Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestDivideQuotientOrderIsStable pins the quotient's cube order: it
// follows f's cubes, so repeated calls build the same cover.
func TestDivideQuotientOrderIsStable(t *testing.T) {
	// f = (a + b)·(x1 + … + x8): vars a, b = 0, 1 and x_i = i + 1.
	const nv = 10
	f := logic.NewCover(nv)
	for _, ab := range []int{0, 1} {
		for i := 2; i < nv; i++ {
			c := logic.NewCube(nv)
			c.SetLit(ab, logic.LitPos)
			c.SetLit(i, logic.LitPos)
			f.Add(c)
		}
	}
	d := logic.MustParseCover(nv, "1---------", "-1--------")
	for run := 0; run < 50; run++ {
		q, r := Divide(f, d)
		if len(q.Cubes) != nv-2 || len(r.Cubes) != 0 {
			t.Fatalf("run %d: quotient %d cubes, remainder %d", run, len(q.Cubes), len(r.Cubes))
		}
		for i, c := range q.Cubes {
			if c.Lit(i+2) != logic.LitPos || c.CountLits() != 1 {
				t.Fatalf("run %d: quotient cube %d is %v, want x%d", run, i, c, i+1)
			}
		}
	}
}
