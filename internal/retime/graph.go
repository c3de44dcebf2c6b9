// Package retime implements Leiserson–Saxe retiming of gate-level
// sequential networks: the retiming graph, atomic forward/backward register
// moves with initial-state computation (Touati–Brayton style), min-period
// retiming via binary search + FEAS, and constrained min-area retiming via
// the min-cost-flow dual of the retiming LP. It supplies both the
// conventional-retiming baseline of Table I and the constrained min-area
// post-pass of the paper's Algorithm 1. A logic node's vertex delay is its
// largest timing.PinDelay, so a mapped network retimes in library delay and
// an unmapped one in unit delay.
package retime

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/timing"
)

// vertexDelay is the propagation delay of logic node v as one retiming
// vertex: its largest timing.PinDelay, or 1 when that is 0 (a constant
// node, or a gate without delay data).
func vertexDelay(v *network.Node) float64 {
	m := 0.0
	for i := range v.Fanins {
		m = max(m, timing.PinDelay(v, i))
	}
	if m == 0 {
		return 1
	}
	return m
}

// Edge is a retiming-graph arc carrying W registers.
type Edge struct {
	From, To int
	W        int
}

// Graph is the Leiserson–Saxe retiming graph. Vertex 0 is the host
// (environment); vertices 1..len(Nodes) are the logic nodes.
type Graph struct {
	Nodes []*network.Node // Nodes[i] is vertex i+1
	Index []int           // Index[v.ID] is logic node v's vertex id
	Edges []Edge
	Delay []float64 // per vertex; Delay[0] = 0 (host)
}

// Host is the environment vertex id.
const Host = 0

// BuildGraph constructs the retiming graph of a network. Registers between
// two logic endpoints become edge weights; chains of registers collapse
// into a single weighted edge. Primary inputs and outputs attach to the
// host vertex. Constant nodes get a zero-weight host edge, pinning their
// lag to keep degenerate register creation out of the solution space.
func BuildGraph(n *network.Network) (*Graph, error) {
	g := &Graph{Index: make([]int, n.NumIDs())}
	for _, v := range n.Nodes() {
		if v.Kind == network.KindLogic {
			g.Nodes = append(g.Nodes, v)
			g.Index[v.ID] = len(g.Nodes) // vertex id
		}
	}
	g.Delay = make([]float64, len(g.Nodes)+1)
	for i, v := range g.Nodes {
		g.Delay[i+1] = vertexDelay(v)
	}

	// traceSource walks backwards through register chains from a fanin
	// node, returning the driving vertex id and the register count.
	traceSource := func(src *network.Node) (int, int, error) {
		w := 0
		cur := src
		for {
			switch cur.Kind {
			case network.KindLogic:
				return g.Index[cur.ID], w, nil
			case network.KindPI:
				return Host, w, nil
			case network.KindLatchOut:
				l := n.LatchOfOutput(cur)
				if l == nil {
					return 0, 0, fmt.Errorf("retime: dangling latch output %s", cur.Name)
				}
				w++
				cur = l.Driver
			}
			if w > len(n.Latches)+1 {
				return 0, 0, fmt.Errorf("retime: register cycle without logic at %s", src.Name)
			}
		}
	}

	for _, v := range g.Nodes {
		to := g.Index[v.ID]
		for _, fi := range v.Fanins {
			from, w, err := traceSource(fi)
			if err != nil {
				return nil, err
			}
			g.Edges = append(g.Edges, Edge{From: from, To: to, W: w})
		}
		if len(v.Fanins) == 0 {
			// Constant node: pin with a zero-weight host edge.
			g.Edges = append(g.Edges, Edge{From: Host, To: to, W: 0})
		}
	}
	for _, p := range n.POs {
		from, w, err := traceSource(p.Driver)
		if err != nil {
			return nil, err
		}
		if from == Host {
			continue // PI-to-PO feedthrough carries no retimable logic
		}
		g.Edges = append(g.Edges, Edge{From: from, To: Host, W: w})
	}
	// Latches whose outputs feed nothing do not constrain retiming, but
	// latch chains that terminate at the host via POs were handled above.
	return g, nil
}

// NumRegisters returns the total edge weight (the register count as seen
// by the graph; register sharing across fanout stems is not modeled, as in
// the basic Leiserson–Saxe formulation).
func (g *Graph) NumRegisters() int {
	t := 0
	for _, e := range g.Edges {
		t += e.W
	}
	return t
}

// Retimed returns the edge weights under lag assignment r (r[Host] must be
// 0), or an error if some weight would go negative.
func (g *Graph) Retimed(r []int) ([]int, error) {
	if r[Host] != 0 {
		return nil, fmt.Errorf("retime: host lag must be 0")
	}
	out := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		w := e.W + r[e.To] - r[e.From]
		if w < 0 {
			return nil, fmt.Errorf("retime: edge %d->%d weight %d negative", e.From, e.To, w)
		}
		out[i] = w
	}
	return out, nil
}

// Period computes the clock period of the graph under lags r: the longest
// vertex-delay path through zero-weight edges. An error signals a
// zero-weight cycle (combinational loop ⇒ infeasible).
func (g *Graph) Period(r []int) (float64, error) {
	return g.newKernel().period(r)
}
