package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/sweep"
)

// reachPartition computes the ground-truth register equivalence classes
// from exact BDD reachability: latches i and j are equal iff
// Reachable ∧ (xi ⊕ xj) is empty. Returned in the same canonical form as
// sweep.Result.Classes (members ascending, classes by first member).
func reachPartition(a *reach.Analysis) [][]int {
	cur := a.Machines[0].CurVar
	L := len(cur)
	parent := make([]int, L)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < L; i++ {
		for j := i + 1; j < L; j++ {
			diff := a.M.Xor(a.M.Var(cur[i]), a.M.Var(cur[j]))
			if a.M.And(a.Reachable, diff) == bdd.False {
				parent[find(j)] = find(i)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < L; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x][0] < out[y][0] })
	return out
}

// TestPropertySweepMatchesReach pins the induction engine against exact
// reachability on every registry circuit the BDD engine can still handle:
// the sweep-proven register partition must match the reachable-state
// equivalence classes exactly — no unsound merge (soundness) and no pair
// lost to a spurious induction counterexample (precision on this suite).
// Constant latches are additionally checked to be genuinely stuck on all
// reachable states. K = 2 runs the reduced step instance with a
// hypothesis frame past frame 0, where a latch member's own function is
// the previous frame's next-state literal.
func TestPropertySweepMatchesReach(t *testing.T) {
	type row struct {
		name string
		n    *network.Network
		a    *reach.Analysis
		want [][]int
	}
	var rows []row
	for _, c := range bench.TableI() {
		n, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Latches) > reach.DefaultLimits.MaxLatches {
			continue
		}
		a, err := reach.Analyze(context.Background(), n, reach.DefaultLimits, nil)
		if errors.Is(err, reach.ErrTooLarge) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: reach: %v", c.Name, err)
		}
		want := reachPartition(a)
		if want == nil {
			want = [][]int{}
		}
		rows = append(rows, row{c.Name, n, a, want})
	}
	if len(rows) < 5 {
		t.Fatalf("only %d circuits exercised — registry or limits changed?", len(rows))
	}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for _, r := range rows {
				res, err := sweep.RegistersAtDepth(context.Background(), r.n, k, 0, sweep.Options{})
				if err != nil {
					t.Fatalf("%s: sweep: %v", r.name, err)
				}
				got := res.Classes
				if got == nil {
					got = [][]int{}
				}
				if !reflect.DeepEqual(got, r.want) {
					t.Errorf("%s: sweep classes %v, reach classes %v", r.name, got, r.want)
				}
				for _, li := range res.Const {
					if r.a.M.And(r.a.Reachable, r.a.M.Var(r.a.Machines[0].CurVar[li])) != bdd.False {
						t.Errorf("%s: latch %d reported constant 0 but reachable with value 1", r.name, li)
					}
				}
			}
		})
	}
}
