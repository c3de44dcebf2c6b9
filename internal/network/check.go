package network

import (
	"fmt"
	"slices"
)

// Check validates internal consistency: fanin/fanout symmetry, function
// arity, name-table integrity, latch wiring and combinational acyclicity.
// Passes call it in tests after every transformation.
func (n *Network) Check() error {
	nodes := n.Nodes()
	// byID[id] is the node listed with that ID: a node belongs to n iff
	// it is its ID's entry, which a removed or foreign node is not.
	byID := make([]*Node, n.nextID)
	for _, v := range nodes {
		if v.ID < 0 || v.ID >= len(byID) {
			return fmt.Errorf("network: node %s has ID %d outside [0, %d)", v.Name, v.ID, len(byID))
		}
		if byID[v.ID] != nil {
			return fmt.Errorf("network: nodes %s and %s share ID %d", byID[v.ID].Name, v.Name, v.ID)
		}
		byID[v.ID] = v
	}
	has := func(v *Node) bool { return v != nil && v.ID >= 0 && v.ID < len(byID) && byID[v.ID] == v }
	for name, v := range n.byName {
		if v.Name != name {
			return fmt.Errorf("network: name table maps %q to node named %q", name, v.Name)
		}
		if !has(v) {
			return fmt.Errorf("network: name table references removed node %q", name)
		}
	}
	// seen[id] == k+1 marks a fanin of the k-th node: duplicate detection.
	seen := make([]int, len(byID))
	for k, v := range nodes {
		switch v.Kind {
		case KindPI, KindLatchOut:
			if len(v.Fanins) != 0 || v.Func != nil {
				return fmt.Errorf("network: source %s has fanins or function", v.Name)
			}
		case KindLogic:
			if v.Func == nil {
				return fmt.Errorf("network: logic node %s has no function", v.Name)
			}
			if v.Func.N != len(v.Fanins) {
				return fmt.Errorf("network: node %s: %d cover vars vs %d fanins",
					v.Name, v.Func.N, len(v.Fanins))
			}
			for _, fi := range v.Fanins {
				if !has(fi) {
					return fmt.Errorf("network: node %s has removed fanin %s", v.Name, fi.Name)
				}
				if seen[fi.ID] == k+1 {
					return fmt.Errorf("network: node %s has duplicate fanin %s", v.Name, fi.Name)
				}
				seen[fi.ID] = k + 1
				if !slices.Contains(fi.fanouts, v) {
					return fmt.Errorf("network: fanout list of %s misses consumer %s", fi.Name, v.Name)
				}
			}
		}
		for _, fo := range v.fanouts {
			if !has(fo) {
				return fmt.Errorf("network: node %s has removed fanout %s", v.Name, fo.Name)
			}
			if fo.FaninIndex(v) < 0 {
				return fmt.Errorf("network: fanout %s of %s does not list it as fanin", fo.Name, v.Name)
			}
		}
	}
	for _, l := range n.Latches {
		if !has(l.Driver) {
			return fmt.Errorf("network: latch %s driver removed or missing", l.Name)
		}
		if !has(l.Output) || l.Output.Kind != KindLatchOut {
			return fmt.Errorf("network: latch %s output invalid", l.Name)
		}
	}
	for _, p := range n.POs {
		if !has(p.Driver) {
			return fmt.Errorf("network: PO %s driver removed", p.Name)
		}
	}
	// Validation must not trust the topo memo: Check exists precisely to
	// catch out-of-API mutations (fault injection writes Fanins directly),
	// which bypass invalidation. Recompute, then refresh the memo with the
	// ground truth just established.
	order, err := n.topoSort()
	n.topoCache, n.topoErr, n.topoValid = order, err, true
	if err != nil {
		return err
	}
	return nil
}

// Stats is a compact summary used by flows and tools.
type Stats struct {
	PIs, POs, Latches, LogicNodes, Lits int
}

// Stat computes the summary.
func (n *Network) Stat() Stats {
	return Stats{
		PIs:        len(n.PIs),
		POs:        len(n.POs),
		Latches:    len(n.Latches),
		LogicNodes: n.NumLogicNodes(),
		Lits:       n.NumLits(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d latch=%d nodes=%d lits=%d",
		s.PIs, s.POs, s.Latches, s.LogicNodes, s.Lits)
}
