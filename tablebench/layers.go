package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// spanNode is the part of an obs span that layer attribution needs: its
// name, its wall time and its children. Keeping attribution on this plain
// tree lets the tests build trees with exact durations.
type spanNode struct {
	name     string
	dur      time.Duration
	children []*spanNode
}

// spanTree copies the finished span tree of tr, one node per top-level span.
func spanTree(tr *obs.Tracer) []*spanNode {
	var conv func(s *obs.Span) *spanNode
	conv = func(s *obs.Span) *spanNode {
		n := &spanNode{name: s.Name, dur: s.Dur()}
		for _, c := range s.Children() {
			n.children = append(n.children, conv(c))
		}
		return n
	}
	var out []*spanNode
	for _, c := range tr.Root().Children() {
		out = append(out, conv(c))
	}
	return out
}

// verifySpan is the benchmark's own span around every flows.VerifyVerdict
// call. Its self time is seqverify's BDD product-machine traversal, which
// emits no span of its own.
const verifySpan = "verify"

// Layer names. The empty layer is unattributed time.
const (
	layerNone      = ""
	layerFlows     = "flows" // the flow.* spans themselves: glue, measure, clones
	layerRemap     = "remap"
	layerGuard     = "guard"
	layerMapper    = "mapper"
	layerAlgebraic = "algebraic"
	layerAIG       = "aig"
	layerRetime    = "retime"
	layerReach     = "reach"
	layerCore      = "core"
	layerSweep     = "sweep"
	layerBitsim    = "bitsim"
	layerSeqverify = "seqverify"
)

// exactLayers maps span names that are not dotted "<layer>.<op>" names.
var exactLayers = map[string]string{
	verifySpan:              layerSeqverify,
	"remap":                 layerRemap,
	"apply_unreachable_dcs": layerReach,
}

// prefixLayers maps the dotted span-name prefixes to their layer.
var prefixLayers = []struct{ prefix, layer string }{
	{"flow.", layerFlows},
	{"guard.", layerGuard},
	{"mapper.", layerMapper},
	{"algebraic.", layerAlgebraic},
	{"aig.", layerAIG},
	{"retime.", layerRetime},
	{"reach.", layerReach},
	{"core.", layerCore},
	{"sweep.", layerSweep},
	{"bitsim.", layerBitsim},
}

// stepLayers are the layers whose spans open bare-named step spans
// (algebraic's sweep/simplify/eliminate/kernels/decompose, core's
// sta/…/dcret_simplify). A bare name belongs to the step layer it is
// opened under, so algebraic's network "sweep" is not internal/sweep.
var stepLayers = map[string]bool{layerAlgebraic: true, layerCore: true}

// layerOf resolves the layer of a span from its name and its parent's
// layer. Unknown names are unattributed.
func layerOf(name, parent string) string {
	if l, ok := exactLayers[name]; ok {
		return l
	}
	for _, p := range prefixLayers {
		if strings.HasPrefix(name, p.prefix) {
			return p.layer
		}
	}
	if !strings.Contains(name, ".") && stepLayers[parent] {
		return parent
	}
	return layerNone
}

// attribution is the self time of a span forest split by layer.
type attribution struct {
	// layer is the self time per layer; layerNone holds unknown spans.
	layer map[string]time.Duration
	// step is the self time of bare-named step spans, keyed
	// "<layer>.<step>" (e.g. "algebraic.eliminate", "core.dcret_simplify").
	step map[string]time.Duration
	// total is the summed wall of the forest's roots.
	total time.Duration
}

// attribute splits the wall of a span forest into per-layer self times. A
// span's self time is its wall minus its children's walls, floored at 0;
// the flows trace sequentially, so children never overlap.
func attribute(roots []*spanNode) attribution {
	a := attribution{layer: map[string]time.Duration{}, step: map[string]time.Duration{}}
	var walk func(n *spanNode, parent string)
	walk = func(n *spanNode, parent string) {
		l := layerOf(n.name, parent)
		self := n.dur
		for _, c := range n.children {
			self -= c.dur
			walk(c, l)
		}
		if self < 0 {
			self = 0
		}
		a.layer[l] += self
		if l == parent && stepLayers[l] && !strings.Contains(n.name, ".") {
			a.step[l+"."+n.name] += self
		}
	}
	for _, r := range roots {
		a.total += r.dur
		walk(r, layerNone)
	}
	return a
}

// splitVerify separates the benchmark's top-level verify spans from the
// flow spans.
func splitVerify(roots []*spanNode) (flowRoots, verifyRoots []*spanNode) {
	for _, r := range roots {
		if r.name == verifySpan {
			verifyRoots = append(verifyRoots, r)
		} else {
			flowRoots = append(flowRoots, r)
		}
	}
	return flowRoots, verifyRoots
}

// named sums the self time attributed to named layers, i.e. everything
// except the flow.* glue and unknown spans.
func (a attribution) named() time.Duration {
	var d time.Duration
	for l, v := range a.layer {
		if l != layerNone && l != layerFlows {
			d += v
		}
	}
	return d
}
