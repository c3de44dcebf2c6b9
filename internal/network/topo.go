package network

import "fmt"

// TopoOrder returns the logic nodes in topological order (fanins before
// fanouts). Combinational sources (PIs, latch outputs) are not included.
// It returns an error if the combinational logic contains a cycle — legal
// sequential feedback must pass through a latch.
//
// The order is memoized: it depends only on the logic-node set and the
// Fanins edges, both of which change exclusively through register /
// SetFunction / RemoveDeadNode / RemoveLatch, each of which drops the
// cache. Driver rewires on latches and POs do not affect it. The caller
// receives a fresh slice each time and may reorder it freely.
func (n *Network) TopoOrder() ([]*Node, error) {
	if n.topoValid {
		if n.topoErr != nil {
			return nil, n.topoErr
		}
		out := make([]*Node, len(n.topoCache))
		copy(out, n.topoCache)
		return out, nil
	}
	order, err := n.topoSort()
	n.topoCache, n.topoErr, n.topoValid = order, err, true
	if err != nil {
		return nil, err
	}
	out := make([]*Node, len(order))
	copy(out, order)
	return out, nil
}

// invalidateTopo drops the memoized topological order; every structural
// mutation of the logic graph must pass through here.
func (n *Network) invalidateTopo() {
	n.topoValid = false
	n.topoCache = nil
	n.topoErr = nil
}

func (n *Network) topoSort() ([]*Node, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	nodes := n.Nodes()
	color := make([]byte, n.nextID)
	order := make([]*Node, 0, len(nodes))
	var visit func(v *Node) error
	visit = func(v *Node) error {
		switch color[v.ID] {
		case gray:
			return fmt.Errorf("network: combinational cycle through %s", v.Name)
		case black:
			return nil
		}
		if v.IsSource() {
			color[v.ID] = black
			return nil
		}
		color[v.ID] = gray
		for _, fi := range v.Fanins {
			if err := visit(fi); err != nil {
				return err
			}
		}
		color[v.ID] = black
		order = append(order, v)
		return nil
	}
	for _, p := range n.POs {
		if err := visit(p.Driver); err != nil {
			return nil, err
		}
	}
	for _, l := range n.Latches {
		if err := visit(l.Driver); err != nil {
			return nil, err
		}
	}
	// Dead logic nodes still participate so callers can iterate everything.
	for _, v := range nodes {
		if v.Kind == KindLogic {
			if err := visit(v); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}
