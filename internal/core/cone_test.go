package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/dontcare"
	"repro/internal/logic"
	"repro/internal/network"
)

// TestCollapseConeMatchesNetworkSemantics: the flattened cover of a cone
// must agree with node-by-node evaluation of the network on every support
// assignment, across random circuits.
func TestCollapseConeMatchesNetworkSemantics(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		n := bench.Synthetic(bench.Profile{
			Name: "c", PIs: 3, POs: 2, FFs: 3, Gates: 10, Seed: seed,
		})
		for _, po := range n.POs {
			root := po.Driver
			if root.Kind != network.KindLogic {
				continue
			}
			support, f, ok := new(coneCollapser).collapse(n, root)
			if !ok {
				continue
			}
			if len(support) > 10 {
				continue
			}
			// Exhaustive comparison over the support.
			for mt := 0; mt < 1<<uint(len(support)); mt++ {
				val := map[*network.Node]bool{}
				assign := make([]bool, len(support))
				for i, s := range support {
					assign[i] = mt&(1<<uint(i)) != 0
					val[s] = assign[i]
				}
				want := evalNode(root, val)
				if f.Eval(assign) != want {
					t.Fatalf("seed %d root %s: collapsed cover differs at %b",
						seed, root.Name, mt)
				}
			}
		}
	}
}

// evalNode evaluates a node recursively given source values.
func evalNode(v *network.Node, val map[*network.Node]bool) bool {
	if b, ok := val[v]; ok {
		return b
	}
	assign := make([]bool, len(v.Fanins))
	for i, fi := range v.Fanins {
		assign[i] = evalNode(fi, val)
	}
	b := v.Func.Eval(assign)
	val[v] = b
	return b
}

// equivCone returns a network whose PO is h = g AND p0 … p(k-1), with
// g = r1 XOR r2 over two registers loaded from the same PI, and the class
// {r1, r2}. The cone of h has k+2 sources.
func equivCone(k int) (*network.Network, *dontcare.Classes) {
	n := network.New("cone")
	pis := make([]*network.Node, k)
	for i := range pis {
		pis[i] = n.AddPI(fmt.Sprintf("p%d", i))
	}
	r1 := n.AddLatch("r1", pis[0], network.V0)
	r2 := n.AddLatch("r2", pis[0], network.V0)
	g := n.AddLogic("g", []*network.Node{r1.Output, r2.Output}, logic.MustParseCover(2, "10", "01"))
	and := logic.NewCover(k + 1)
	cube := logic.NewCube(k + 1)
	for i := 0; i <= k; i++ {
		cube.SetLit(i, logic.LitPos)
	}
	and.Add(cube)
	n.AddPO("y", n.AddLogic("h", append([]*network.Node{g}, pis...), and))
	classes := dontcare.New()
	classes.AddClass([]*network.Latch{r1, r2})
	return n, classes
}

// TestCollapseConeRespectsBounds: a cone up to the 12-source bound is
// collapsed and simplified whole; one source past it is refused, and
// DCret simplification falls back to the per-node pass, which still
// simplifies the node reading the equivalent registers.
func TestCollapseConeRespectsBounds(t *testing.T) {
	n, classes := equivCone(maxConeSupport - 2)
	if _, _, ok := new(coneCollapser).collapse(n, n.FindNode("h")); !ok {
		t.Fatalf("cone of %d sources refused", maxConeSupport)
	}
	if simplifyWithDCRet(n, classes, nil) == 0 || n.FindNode("h_rs") == nil {
		t.Fatalf("cone of %d sources not simplified whole", maxConeSupport)
	}

	n, classes = equivCone(maxConeSupport - 1)
	if _, _, ok := new(coneCollapser).collapse(n, n.FindNode("h")); ok {
		t.Fatalf("cone of %d sources collapsed past the bound", maxConeSupport+1)
	}
	if simplifyWithDCRet(n, classes, nil) == 0 {
		t.Fatal("per-node fallback simplified nothing")
	}
	if n.FindNode("h_rs") != nil {
		t.Fatal("cone past the bound was replaced whole")
	}
	if g := n.FindNode("g"); g == nil || g.Func.NumLits() != 0 {
		t.Fatal("g = r1 XOR r2 not simplified to a constant under r1 ≡ r2")
	}
}

// TestConeCost sanity.
func TestConeCost(t *testing.T) {
	n := network.New("cc")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g1 := n.AddLogic("g1", []*network.Node{a, b}, logic.MustParseCover(2, "11"))
	g2 := n.AddLogic("g2", []*network.Node{g1, a}, logic.MustParseCover(2, "1-", "-1"))
	n.AddPO("y", g2)
	var cc coneCollapser
	if _, _, ok := cc.collapse(n, g2); !ok || cc.cost() != 4 {
		t.Fatalf("cone cost = %d (collapsed %v), want 4 (2+2 literals)", cc.cost(), ok)
	}
}

// TestSweepDanglingLatchesChains: removing a latch may strand a whole
// driver chain of latches; the sweep must fix the chain transitively.
func TestSweepDanglingLatchesChains(t *testing.T) {
	n := network.New("chain")
	a := n.AddPI("a")
	l1 := n.AddLatch("q1", a, network.V0)
	l2 := n.AddLatch("q2", l1.Output, network.V0)
	l3 := n.AddLatch("q3", l2.Output, network.V0)
	_ = l3 // q3 output feeds nothing
	n.AddPO("y", a)
	removed := n.SweepLatches()
	if removed != 3 {
		t.Fatalf("removed %d latches, want the whole chain of 3", removed)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestResynthesizeStressMediumCircuits runs Algorithm 1 over a batch of
// medium random circuits and verifies every applied result.
func TestResynthesizeStressMediumCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(2026))
	applied := 0
	for trial := 0; trial < 10; trial++ {
		n := bench.Synthetic(bench.Profile{
			Name: "m", PIs: 2 + r.Intn(4), POs: 1 + r.Intn(3),
			FFs: 3 + r.Intn(5), Gates: 12 + r.Intn(24), Seed: int64(trial) + 500,
		})
		res, err := Resynthesize(context.Background(), n, Options{KeepHarm: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Applied {
			continue
		}
		applied++
		if err := res.Network.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if applied == 0 {
		t.Fatal("resynthesis never applied across the stress batch")
	}
}
