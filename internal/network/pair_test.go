package network

import (
	"slices"
	"strings"
	"testing"
)

// portNet builds a network with the named PIs and POs, each PO driven by
// the first PI.
func portNet(name string, pis, pos []string) *Network {
	n := New(name)
	var first *Node
	for _, p := range pis {
		v := n.AddPI(p)
		if first == nil {
			first = v
		}
	}
	for _, p := range pos {
		n.AddPO(p, first)
	}
	return n
}

func TestPair(t *testing.T) {
	for _, tc := range []struct {
		name           string
		aPIs, bPIs     []string
		aPOs, bPOs     []string
		wantPI, wantPO []int
		wantErr        string
	}{
		{
			name: "permuted names",
			aPIs: []string{"x", "y", "z"}, bPIs: []string{"z", "x", "y"},
			aPOs: []string{"o", "p"}, bPOs: []string{"p", "o"},
			wantPI: []int{1, 2, 0}, wantPO: []int{1, 0},
		},
		{
			name: "all PIs renamed: positional",
			aPIs: []string{"x", "y", "z"}, bPIs: []string{"u", "v", "w"},
			aPOs: []string{"o"}, bPOs: []string{"o", "extra"},
			wantPI: []int{0, 1, 2}, wantPO: []int{0},
		},
		{
			// x has no partner by name: it takes z, the one PI of b left
			// over. Pairing b's unmatched z with a's PI at z's position
			// (y) would drive two PIs of b from y.
			name: "partial rename",
			aPIs: []string{"x", "y"}, bPIs: []string{"y", "z"},
			aPOs: []string{"o"}, bPOs: []string{"o"},
			wantPI: []int{1, 0}, wantPO: []int{0},
		},
		{
			name: "PI count mismatch",
			aPIs: []string{"x", "y"}, bPIs: []string{"x"},
			wantErr: "PI counts differ (2 vs 1)",
		},
		{
			name: "missing PO",
			aPIs: []string{"x"}, bPIs: []string{"x"},
			aPOs: []string{"o", "p"}, bPOs: []string{"o"},
			wantErr: `PO "p" missing in b`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Pair(portNet("a", tc.aPIs, tc.aPOs), portNet("b", tc.bPIs, tc.bPOs))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.PI, tc.wantPI) || !slices.Equal(p.PO, tc.wantPO) {
				t.Fatalf("PI %v PO %v, want PI %v PO %v", p.PI, p.PO, tc.wantPI, tc.wantPO)
			}
		})
	}
}
