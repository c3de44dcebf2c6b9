package seqverify

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/network"
	"repro/internal/reach"
)

const cnt2 = `
.model cnt2
.inputs en
.outputs carry
.latch d0 s0 0
.latch d1 s1 0
.names s0 en d0
10 1
01 1
.names s0 en t0
11 1
.names s1 t0 d1
10 1
01 1
.names s1 s0 carry
11 1
.end
`

func TestSelfEquivalence(t *testing.T) {
	n, err := blif.ParseString(cnt2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(context.Background(), n, n.Clone(), Options{}); err != nil {
		t.Fatalf("network not equivalent to clone: %v", err)
	}
}

func TestDetectsFunctionalBug(t *testing.T) {
	n, _ := blif.ParseString(cnt2)
	m := n.Clone()
	c := m.FindNode("carry")
	m.SetFunction(c, c.Fanins, logic.MustParseCover(2, "1-", "-1"))
	if err := Equivalent(context.Background(), n, m, Options{}); err == nil {
		t.Fatal("OR-for-AND bug not detected")
	}
}

func TestDetectsInitStateBug(t *testing.T) {
	n, _ := blif.ParseString(cnt2)
	m := n.Clone()
	m.Latches[0].Init = network.V1
	if err := Equivalent(context.Background(), n, m, Options{}); err == nil {
		t.Fatal("initial-state difference not detected")
	}
}

// buildDelayed builds a machine whose output replays the input k cycles
// later through a shift chain with the given initial values.
func buildDelayed(inits []network.Value) *network.Network {
	n := network.New("shift")
	a := n.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	prev := a
	for i, init := range inits {
		l := n.AddLatch("q"+string(rune('0'+i)), prev, init)
		prev = l.Output
	}
	o := n.AddLogic("o", []*network.Node{prev}, buf.Clone())
	n.AddPO("y", o)
	return n
}

func TestDelayedReplacement(t *testing.T) {
	// Two 2-stage shifters differing only in initial contents: equal from
	// cycle 2 onward, different before.
	a := buildDelayed([]network.Value{network.V0, network.V0})
	b := buildDelayed([]network.Value{network.V1, network.V1})
	if err := Equivalent(context.Background(), a, b, Options{Delay: 0}); err == nil {
		t.Fatal("initial transient must fail safe replacement")
	}
	if err := Equivalent(context.Background(), a, b, Options{Delay: 1}); err == nil {
		t.Fatal("one cycle is not enough for a depth-2 pipeline")
	}
	if err := Equivalent(context.Background(), a, b, Options{Delay: 2}); err != nil {
		t.Fatalf("delay-2 replacement must hold: %v", err)
	}
}

func TestStemSplitEquivalence(t *testing.T) {
	// The paper's Fig. 2/3 situation: register R with two fanouts vs the
	// forward-retimed version with registers R1, R2 (same init). The
	// machines are equivalent under delayed replacement with k = 1 (and in
	// fact also safe here because the inits are equal).
	orig := network.New("orig")
	a := orig.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	and2 := logic.MustParseCover(2, "11")
	or2 := logic.MustParseCover(2, "1-", "-1")
	l := orig.AddLatch("r", a, network.V0)
	g1 := orig.AddLogic("g1", []*network.Node{l.Output, a}, and2.Clone())
	g2 := orig.AddLogic("g2", []*network.Node{l.Output, a}, or2.Clone())
	out := orig.AddLogic("out", []*network.Node{g1, g2}, logic.MustParseCover(2, "10", "01"))
	orig.AddPO("y", out)
	_ = buf

	split := network.New("split")
	a2 := split.AddPI("a")
	l1 := split.AddLatch("r1", a2, network.V0)
	l2 := split.AddLatch("r2", a2, network.V0)
	h1 := split.AddLogic("g1", []*network.Node{l1.Output, a2}, and2.Clone())
	h2 := split.AddLogic("g2", []*network.Node{l2.Output, a2}, or2.Clone())
	out2 := split.AddLogic("out", []*network.Node{h1, h2}, logic.MustParseCover(2, "10", "01"))
	split.AddPO("y", out2)

	if err := Equivalent(context.Background(), orig, split, Options{Delay: 0}); err != nil {
		t.Fatalf("stem split with equal inits must be safe-equivalent: %v", err)
	}
	if err := Equivalent(context.Background(), orig, split, Options{Delay: 1}); err != nil {
		t.Fatalf("and surely delayed-equivalent: %v", err)
	}
}

func TestPOMatchingByName(t *testing.T) {
	n, _ := blif.ParseString(cnt2)
	m := n.Clone()
	m.POs[0].Name = "other"
	if err := Equivalent(context.Background(), n, m, Options{}); err == nil {
		t.Fatal("missing PO name must be reported")
	}
}

func TestTooLarge(t *testing.T) {
	// A shift register one stage longer than half the latch limit: the
	// product of it and its clone is past the limit.
	n := network.New("shift")
	d := n.AddPI("d")
	for i := 0; i <= reach.DefaultLimits.MaxLatches/2; i++ {
		d = n.AddLatch(fmt.Sprintf("r%d", i), d, network.V0).Output
	}
	n.AddPO("q", d)
	if err := Equivalent(context.Background(), n, n.Clone(), Options{}); !errors.Is(err, reach.ErrTooLarge) {
		t.Fatalf("latch limit not applied: %v", err)
	}
}
