package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ name, parent, want string }{
		{"flow.script_delay", layerNone, layerFlows},
		{"guard.algebraic.optimize", layerFlows, layerGuard},
		{"algebraic.optimize", layerGuard, layerAlgebraic},
		// algebraic's network sweep step is not internal/sweep.
		{"sweep", layerAlgebraic, layerAlgebraic},
		{"eliminate", layerAlgebraic, layerAlgebraic},
		{"sweep.prove", layerNone, layerSweep},
		{"sweep.dc_extract", layerGuard, layerSweep},
		{"sta", layerCore, layerCore},
		{"dcret_simplify", layerCore, layerCore},
		{"core.resynthesize", layerCore, layerCore},
		{"apply_unreachable_dcs", layerGuard, layerReach},
		{"reach.analyze", layerGuard, layerReach},
		{"remap", layerFlows, layerRemap},
		{"mapper.map_delay", layerRemap, layerMapper},
		{"aig.restructure", layerRemap, layerAIG},
		{"retime.min_area", layerRetime, layerRetime},
		{"bitsim.random_equivalent", layerGuard, layerBitsim},
		{verifySpan, layerNone, layerSeqverify},
		// Bare names only inherit from step layers; elsewhere they and
		// unknown dotted names are unattributed.
		{"sweep", layerGuard, layerNone},
		{"mystery", layerFlows, layerNone},
		{"new.layer", layerCore, layerNone},
	} {
		if got := layerOf(c.name, c.parent); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.name, c.parent, got, c.want)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func sp(name string, d int, children ...*spanNode) *spanNode {
	return &spanNode{name: name, dur: ms(d), children: children}
}

func TestAttributeSelfTimes(t *testing.T) {
	roots := []*spanNode{
		sp("flow.script_delay", 100,
			sp("guard.algebraic.optimize", 40,
				sp("algebraic.optimize", 35,
					sp("sweep", 5),
					sp("eliminate", 20),
					sp("decompose", 4)),
				sp("bitsim.random_equivalent", 3)),
			sp("guard.mapper.map_delay", 50,
				sp("mapper.map_delay", 45)),
			sp("mystery", 2)),
		sp("flow.retime_combopt", 30,
			sp("guard.retime.min_period", 25,
				sp("retime.min_period", 24)),
			sp("remap", 4,
				sp("mapper.map_delay", 5))), // overlapping child: self floors at 0
	}
	a := attribute(roots)
	want := map[string]time.Duration{
		layerFlows:     ms(8 + 1),
		layerGuard:     ms(2 + 5 + 1),
		layerAlgebraic: ms(35),
		layerBitsim:    ms(3),
		layerMapper:    ms(45 + 5),
		layerRetime:    ms(24),
		layerRemap:     0,
		layerNone:      ms(2),
	}
	for l, d := range want {
		if a.layer[l] != d {
			t.Errorf("layer %q self = %v, want %v", l, a.layer[l], d)
		}
	}
	if len(a.step) != 3 || a.step["algebraic.eliminate"] != ms(20) || a.step["algebraic.sweep"] != ms(5) {
		t.Errorf("steps = %v, want algebraic's sweep, eliminate and decompose", a.step)
	}
	if a.total != ms(130) {
		t.Errorf("total = %v, want 130ms", a.total)
	}
	// Named excludes the flow.* glue (9ms) and the unknown span (2ms); the
	// floored remap self time makes the layer sum exceed the wall by 1ms.
	if got, want := a.named(), a.total-ms(9)-ms(2)+ms(1); got != want {
		t.Errorf("named = %v, want %v", got, want)
	}
}

// TestAttributeSumsToWall checks on a real obs.Tracer tree that the layer
// self times add up to the roots' wall and that verify spans are split off.
func TestAttributeSumsToWall(t *testing.T) {
	tr := obs.New()
	f := tr.Begin("flow.resynthesis")
	g := tr.Begin("guard.core.resynthesize")
	c := tr.Begin("core.resynthesize")
	s := tr.Begin("sta")
	time.Sleep(2 * time.Millisecond)
	s.End()
	d := tr.Begin("dcret_simplify")
	time.Sleep(2 * time.Millisecond)
	d.End()
	c.End()
	g.End()
	f.End()
	v := tr.Begin(verifySpan)
	b := tr.Begin("bitsim.random_equivalent")
	time.Sleep(time.Millisecond)
	b.End()
	v.End()

	flowRoots, verifyRoots := splitVerify(spanTree(tr))
	if len(flowRoots) != 1 || len(verifyRoots) != 1 {
		t.Fatalf("split: %d flow roots, %d verify roots", len(flowRoots), len(verifyRoots))
	}
	for _, roots := range [][]*spanNode{flowRoots, verifyRoots} {
		a := attribute(roots)
		var sum time.Duration
		for _, d := range a.layer {
			sum += d
		}
		if sum != a.total {
			t.Errorf("layer self times sum to %v, roots' wall is %v", sum, a.total)
		}
	}
	fa, va := attribute(flowRoots), attribute(verifyRoots)
	if fa.step["core.dcret_simplify"] < 2*time.Millisecond || fa.step["core.sta"] < 2*time.Millisecond {
		t.Errorf("core steps = %v", fa.step)
	}
	if va.layer[layerBitsim] < time.Millisecond || va.layer[layerCore] != 0 {
		t.Errorf("verify layers = %v", va.layer)
	}
}
