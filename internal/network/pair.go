package network

import (
	"fmt"
	"slices"
)

// Pairing is the port correspondence of two networks compared as one
// product machine: a against b.
type Pairing struct {
	// PI[i] is the position in b.PIs of the input paired with a.PIs[i].
	// It is a bijection.
	PI []int
	// PO[i] is the position in b.POs of the output paired with a.POs[i].
	PO []int
}

// Pair pairs the ports of a and b, the one rule every equivalence engine
// uses. PIs pair by name; the PIs with no same-named partner pair up in
// declaration order, so the map is a bijection. Every PO of a pairs with
// the first same-named PO of b. Unequal PI counts and a PO of a missing
// from b are errors.
func Pair(a, b *Network) (*Pairing, error) {
	if len(a.PIs) != len(b.PIs) {
		return nil, fmt.Errorf("PI counts differ (%d vs %d)", len(a.PIs), len(b.PIs))
	}
	p := &Pairing{PI: make([]int, len(a.PIs)), PO: make([]int, len(a.POs))}
	piOfB := make(map[string]int, len(b.PIs))
	for j, pi := range b.PIs {
		piOfB[pi.Name] = j
	}
	taken := make([]bool, len(b.PIs))
	var unpaired []int // positions in a.PIs, ascending
	for i, pi := range a.PIs {
		if j, ok := piOfB[pi.Name]; ok && !taken[j] {
			p.PI[i], taken[j] = j, true
		} else {
			unpaired = append(unpaired, i)
		}
	}
	for j, t := range taken {
		if !t {
			p.PI[unpaired[0]], unpaired = j, unpaired[1:]
		}
	}
	for i, po := range a.POs {
		j := slices.IndexFunc(b.POs, func(q *PO) bool { return q.Name == po.Name })
		if j < 0 {
			return nil, fmt.Errorf("PO %q missing in %s", po.Name, b.Name)
		}
		p.PO[i] = j
	}
	return p, nil
}
