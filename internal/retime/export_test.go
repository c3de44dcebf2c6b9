package retime

import "context"

// Test hooks for the external retime_test package, whose graphs come out
// of the flows package (which imports retime).

var CheckOPTAgainstReference = checkOPTAgainstReference

// OPTStats runs MinPeriodLagsOPT and returns its probe and constraint-arc
// counts.
func (g *Graph) OPTStats() (probes, constraints int, err error) {
	_, _, st, err := g.minPeriodLagsOPT(context.Background())
	return st.probes, st.constraints, err
}
