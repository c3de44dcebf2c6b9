// Package timing performs static timing analysis of a sequential network
// under one delay rule, PinDelay: a bound gate's pin delay, else one unit.
// The clock period of a circuit is the longest combinational delay between
// any source (PI, register output) and any sink (PO, register data input) —
// the quantity Table I of the paper reports as "Clk.".
package timing

import "repro/internal/network"

// PinDelay returns the delay from fanin pin `pin` of node v to v's output:
// the pin delay of v's bound library gate, or one unit when no gate is
// bound. Only technology mapping binds gates, so an unmapped network is
// timed in unit delay — the model of the paper's worked example (Section
// III: "assume, for simplicity, the unit delay model") — and a mapped one in
// library delay, the unit of Table I's Clk.
func PinDelay(v *network.Node, pin int) float64 {
	if v.Gate != nil {
		return v.Gate.PinDelay(pin)
	}
	return 1
}

// Result holds arrival times and the critical path.
type Result struct {
	// Arrival is indexed by Node.ID, over the analysed network's NumIDs.
	Arrival []float64
	// Period is the maximum arrival time over all combinational sinks.
	Period float64
	// CritSink is the logic node driving the most critical sink.
	CritSink *network.Node
	// critPred records, by Node.ID, the fanin pin realizing the arrival.
	critPred []int32
}

// Analyze runs STA. Sources have arrival 0; logic node arrival is the max
// over fanins of (fanin arrival + pin delay).
func Analyze(n *network.Network) (*Result, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Arrival:  make([]float64, n.NumIDs()),
		critPred: make([]int32, n.NumIDs()),
	}
	// Sources keep arrival 0.
	for _, v := range order {
		best, bestPin := 0.0, int32(-1)
		for i, fi := range v.Fanins {
			a := res.Arrival[fi.ID] + PinDelay(v, i)
			if a > best || bestPin < 0 {
				best, bestPin = a, int32(i)
			}
		}
		if len(v.Fanins) == 0 {
			best = 0
		}
		res.Arrival[v.ID] = best
		res.critPred[v.ID] = bestPin
	}
	// Period = max arrival at sinks.
	for _, p := range n.POs {
		if a := res.Arrival[p.Driver.ID]; a > res.Period {
			res.Period, res.CritSink = a, p.Driver
		}
	}
	for _, l := range n.Latches {
		if a := res.Arrival[l.Driver.ID]; a > res.Period {
			res.Period, res.CritSink = a, l.Driver
		}
	}
	return res, nil
}

// CriticalPath returns the logic nodes of one most-critical combinational
// path, ordered from the first gate after the sources to the sink driver.
// The leading source (PI or register output) is returned separately.
func (r *Result) CriticalPath() (source *network.Node, path []*network.Node) {
	if r.CritSink == nil {
		return nil, nil
	}
	v := r.CritSink
	for v != nil && !v.IsSource() {
		path = append(path, v)
		pin := int(r.critPred[v.ID])
		if pin < 0 || pin >= len(v.Fanins) {
			v = nil
			break
		}
		v = v.Fanins[pin]
	}
	source = v
	// Reverse into input→output order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return source, path
}

// Period is a convenience wrapper returning just the clock period.
func Period(n *network.Network) (float64, error) {
	r, err := Analyze(n)
	if err != nil {
		return 0, err
	}
	return r.Period, nil
}
