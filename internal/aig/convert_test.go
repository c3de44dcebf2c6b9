package aig

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/network"
)

// roundTrip pushes a network through FromNetwork ∘ ToSubjectNetwork and
// asserts the losslessness contract: both representations check
// structurally and the bitsim streams agree cycle for cycle.
func roundTrip(t *testing.T, src *network.Network, cycles int, seed int64) {
	t.Helper()
	g, err := FromNetwork(src)
	if err != nil {
		t.Fatalf("FromNetwork: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	back, err := g.ToSubjectNetwork()
	if err != nil {
		t.Fatalf("ToSubjectNetwork: %v", err)
	}
	if len(back.PIs) != len(src.PIs) || len(back.POs) != len(src.POs) ||
		len(back.Latches) != len(src.Latches) {
		t.Fatalf("interface changed: %d/%d/%d PIs/POs/latches, want %d/%d/%d",
			len(back.PIs), len(back.POs), len(back.Latches),
			len(src.PIs), len(src.POs), len(src.Latches))
	}
	for i, pi := range src.PIs {
		if back.PIs[i].Name != pi.Name {
			t.Errorf("PI %d renamed %q -> %q", i, pi.Name, back.PIs[i].Name)
		}
	}
	for i, po := range src.POs {
		if back.POs[i].Name != po.Name {
			t.Errorf("PO %d renamed %q -> %q", i, po.Name, back.POs[i].Name)
		}
	}
	for i, la := range src.Latches {
		if back.Latches[i].Init != la.Init {
			t.Errorf("latch %d init changed %v -> %v", i, la.Init, back.Latches[i].Init)
		}
	}
	if err := bitsim.RandomEquivalent(src, back, 0, cycles, seed, bitsim.Options{}); err != nil {
		t.Fatalf("round trip diverges: %v", err)
	}
}

func TestRoundTripConstants(t *testing.T) {
	n := network.New("consts")
	a := n.AddPI("a")
	zero := n.AddLogic("z", []*network.Node{a}, logic.Zero(1))
	one := n.AddLogic("o", []*network.Node{a}, logic.One(1))
	n.AddPO("y0", zero)
	n.AddPO("y1", one)
	// A node whose cover collapses to a constant only inside the AIG.
	taut := n.AddLogic("t", []*network.Node{a}, logic.MustParseCover(1, "0", "1"))
	n.AddPO("yt", taut)
	roundTrip(t, n, 32, 1)
}

func TestRoundTripLatchDirectPO(t *testing.T) {
	// PO fed directly by a latch output, latch fed by another latch — no
	// logic in between.
	n := network.New("latchpo")
	a := n.AddPI("a")
	l1 := n.AddLatch("q1", a, network.V1)
	l2 := n.AddLatch("q2", l1.Output, network.V0)
	n.AddPO("y", l2.Output)
	n.AddPO("y1", l1.Output)
	roundTrip(t, n, 64, 2)
}

func TestRoundTripPassThroughPO(t *testing.T) {
	n := network.New("wire")
	a := n.AddPI("a")
	n.AddPO("y", a)
	n.AddPO("yn", n.AddLogic("inv", []*network.Node{a}, logic.MustParseCover(1, "0")))
	roundTrip(t, n, 16, 3)
}

func TestRoundTripDuplicateFaninCubes(t *testing.T) {
	// Covers with repeated and contradictory literal patterns across cubes:
	// xy + xy' + x'y (i.e. x OR y) and a cube list with a duplicate.
	n := network.New("dups")
	x := n.AddPI("x")
	y := n.AddPI("y")
	f := n.AddLogic("f", []*network.Node{x, y}, logic.MustParseCover(2, "11", "10", "01"))
	dup := n.AddLogic("d", []*network.Node{x, y}, logic.MustParseCover(2, "11", "11"))
	n.AddPO("f", f)
	n.AddPO("d", dup)
	roundTrip(t, n, 32, 4)
}

func TestRoundTripConstantDrivenLatch(t *testing.T) {
	n := network.New("constlatch")
	a := n.AddPI("a")
	c1 := n.AddConst("c1", true)
	l := n.AddLatch("q", c1, network.V0)
	n.AddPO("y", n.AddLogic("g", []*network.Node{a, l.Output}, logic.MustParseCover(2, "11")))
	roundTrip(t, n, 32, 5)
}

func TestRoundTripSynthetic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		src := bench.Synthetic(bench.Profile{
			Name: "rt", PIs: 7, POs: 5, FFs: 6, Gates: 90, Seed: seed,
		})
		roundTrip(t, src, 128, seed)
	}
}

func TestRoundTripRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep in short mode")
	}
	for _, c := range bench.TableI() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			src, err := c.Build()
			if err != nil {
				t.Fatalf("build %s: %v", c.Name, err)
			}
			roundTrip(t, src, 64, 42)
		})
	}
}

// FuzzRoundTrip feeds BLIF sources through the converters: everything the
// parser accepts must survive FromNetwork ∘ ToSubjectNetwork with
// network.Check passing and bitsim streams agreeing. Seeds cover the
// converter edge cases: constant functions, latch-fed POs, duplicate-fanin
// cubes.
func FuzzRoundTrip(f *testing.F) {
	seeds := []string{
		".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n",
		".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n-0 1\n.end\n",
		".model m\n.inputs a\n.outputs y\n.latch q y 0\n.names a q\n1 1\n.end\n",
		".model m\n.inputs a\n.outputs y\n.latch a y 3\n.end\n",
		".model m\n.outputs y\n.names y\n1\n.end\n",
		".model m\n.outputs y\n.names y\n.end\n",
		".model m\n.inputs x y\n.outputs f\n.names x y f\n11 1\n10 1\n01 1\n.end\n",
		".model m\n.inputs a\n.outputs p q\n.latch a s0 1\n.latch s0 s1 0\n.names s1 p\n1 1\n.names s0 q\n0 1\n.end\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := blif.ParseString(src)
		if err != nil {
			return
		}
		g, gerr := FromNetwork(n)
		if gerr != nil {
			t.Fatalf("FromNetwork rejected a checked network: %v\n%s", gerr, src)
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("graph invalid: %v\n%s", cerr, src)
		}
		back, berr := g.ToSubjectNetwork()
		if berr != nil {
			t.Fatalf("ToSubjectNetwork: %v\n%s", berr, src)
		}
		if serr := bitsim.RandomEquivalent(n, back, 0, 32, 99, bitsim.Options{}); serr != nil {
			t.Fatalf("round trip diverges: %v\n%s", serr, src)
		}
	})
}
