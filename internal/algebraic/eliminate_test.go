package algebraic

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/blif"
	"repro/internal/guard"
	"repro/internal/logic"
	"repro/internal/network"
)

// referenceEliminate is Eliminate without the composition memo: every
// candidate recomposes every consumer. It is the oracle the memoised pass
// must match exactly. It visits a private copy of the node list and, with
// shift set, deletes each removed node from the copy's live prefix in
// place, the visit order Eliminate documents; without shift it visits
// every node of the list. It returns the eliminations of each pass.
func referenceEliminate(ctx context.Context, n *network.Network, threshold int, shift bool) ([]int, error) {
	var passes []int
	for {
		count := 0
		order := slices.Clone(n.Nodes())
		live := len(order)
		for i := 0; i < len(order); i++ {
			g := order[i]
			if g.Kind != network.KindLogic {
				continue
			}
			if err := guard.Check(ctx, "algebraic.eliminate"); err != nil {
				return append(passes, count), err
			}
			if n.FindNode(g.Name) != g {
				continue
			}
			consumers := n.LogicFanouts(g)
			if len(consumers) == 0 {
				continue
			}
			if len(n.POsDrivenBy(g)) > 0 || len(n.LatchesDrivenBy(g)) > 0 {
				continue
			}
			delta := -g.Func.NumLits()
			newCovers := make(map[*network.Node]*logic.Cover, len(consumers))
			newFanins := make(map[*network.Node][]*network.Node, len(consumers))
			for _, c := range consumers {
				nf, nc := composedFunction(c, g)
				newCovers[c] = nc
				newFanins[c] = nf
				delta += nc.NumLits() - c.Func.NumLits()
			}
			if delta > threshold {
				continue
			}
			for _, c := range consumers {
				n.SetFunction(c, newFanins[c], newCovers[c])
				n.TrimFanins(c)
			}
			if n.NumFanouts(g) == 0 {
				n.RemoveDeadNode(g)
				if p := slices.Index(order[:live], g); shift && p >= 0 {
					copy(order[p:live-1], order[p+1:live])
					live--
				}
			}
			count++
		}
		if count == 0 {
			return passes, nil
		}
		passes = append(passes, count)
	}
}

// randEliminateNetwork builds a random sequential network of nNode logic
// nodes over random earlier fanins, with latches and POs on random nodes,
// so some candidates are pinned and many have several consumers.
func randEliminateNetwork(r *rand.Rand, nPI, nLatch, nNode int) *network.Network {
	n := network.New(fmt.Sprintf("rnd%d", r.Intn(1<<30)))
	var sources []*network.Node
	for i := 0; i < nPI; i++ {
		sources = append(sources, n.AddPI(fmt.Sprintf("i%d", i)))
	}
	var latches []*network.Latch
	for i := 0; i < nLatch; i++ {
		l := n.AddLatch(fmt.Sprintf("s%d", i), nil, network.V0)
		latches = append(latches, l)
		sources = append(sources, l.Output)
	}
	var nodes []*network.Node
	for i := 0; i < nNode; i++ {
		k := min(1+r.Intn(4), len(sources))
		fanins := make([]*network.Node, 0, k)
		seen := map[*network.Node]bool{}
		for len(fanins) < k {
			// Favour recent nodes, so chains form and nodes share consumers.
			c := sources[len(sources)-1-r.Intn(min(len(sources), 12))]
			if r.Intn(3) == 0 {
				c = sources[r.Intn(len(sources))]
			}
			if !seen[c] {
				seen[c] = true
				fanins = append(fanins, c)
			}
		}
		f := logic.NewCover(k)
		for c := 1 + r.Intn(3); c > 0; c-- {
			cube := logic.NewCube(k)
			for v := 0; v < k; v++ {
				if r.Intn(3) != 0 {
					cube.SetLit(v, logic.Lit(1+r.Intn(2)))
				}
			}
			f.Add(cube)
		}
		v := n.AddLogic(fmt.Sprintf("g%d", i), fanins, f)
		nodes = append(nodes, v)
		sources = append(sources, v)
	}
	pick := func() *network.Node { return nodes[len(nodes)/2+r.Intn(len(nodes)-len(nodes)/2)] }
	for _, l := range latches {
		l.Driver = pick()
	}
	for i := 0; i < 2+r.Intn(3); i++ {
		n.AddPO(fmt.Sprintf("o%d", i), pick())
	}
	return n
}

// remapInput reads a retime-flow remap input from testdata and runs the
// restructuring script's passes before eliminate on it: sweep, fanin trim
// and simplify, as OptimizeDelay does.
func remapInput(tb testing.TB, circuit string) *network.Network {
	tb.Helper()
	f, err := os.Open("testdata/" + circuit + "_retime_remap.blif")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	n, err := blif.Read(f)
	if err != nil {
		tb.Fatal(err)
	}
	n.Sweep()
	n.TrimAllFanins()
	SimplifyNodes(n)
	return n
}

func writeBLIF(t *testing.T, n *network.Network) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := blif.Write(&b, n); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEliminateMatchesReference: the memoised Eliminate returns the same
// count and leaves a network that writes the same BLIF as the oracle, on
// random networks at several thresholds and on the s641 and s1238 retime
// remap inputs at the script's threshold 0.
func TestEliminateMatchesReference(t *testing.T) {
	type tcase struct {
		name      string
		net       *network.Network
		threshold int
	}
	var cases []tcase
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		cases = append(cases, tcase{fmt.Sprintf("random%d", i),
			randEliminateNetwork(r, 5, 3, 20+r.Intn(40)), []int{-1, 0, 2, 8}[i%4]})
	}
	for _, c := range []string{"s641", "s1238"} {
		cases = append(cases, tcase{c, remapInput(t, c), 0})
	}
	eliminated := 0
	for _, tc := range cases {
		want := tc.net.Clone()
		passes, wantErr := referenceEliminate(context.Background(), want, tc.threshold, true)
		wantCount := 0
		for _, k := range passes {
			wantCount += k
		}
		got := tc.net.Clone()
		gotCount, gotErr := Eliminate(context.Background(), got, tc.threshold)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: errors %v, %v", tc.name, gotErr, wantErr)
		}
		if gotCount != wantCount {
			t.Fatalf("%s: Eliminate removed %d nodes, the oracle %d", tc.name, gotCount, wantCount)
		}
		if g, w := writeBLIF(t, got), writeBLIF(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s: networks differ after eliminate:\n%s\nwant\n%s", tc.name, g, w)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		eliminated += gotCount
	}
	if eliminated < 10*len(cases) {
		t.Fatalf("only %d nodes eliminated over %d cases: the draw exercises nothing", eliminated, len(cases))
	}
}

// BenchmarkEliminate runs eliminate on the s1238 retime remap input after
// the script's preceding passes: the layer that dominates the SOP flows of
// Table I.
func BenchmarkEliminate(b *testing.B) {
	src := remapInput(b, "s1238")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := src.Clone()
		b.StartTimer()
		if _, err := Eliminate(context.Background(), n, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEliminateSkipsAfterRemoval pins Eliminate's visit order on two
// hand-built networks, at threshold 0. In a pass, the node after each
// removed one is skipped until the next pass.
//   - chain: x = a', w = b', y = x·w drives the output. Removing x skips w,
//     so the first pass eliminates one node, not two.
//   - constant: p = s·a, k = 1, q = k·a + b and r = k + q + p, which drives
//     the output and register s. Removing p skips k, so q is eliminated
//     into r before the next pass collapses k. Visiting k right away would
//     make r constant and strand q: two eliminations, not three.
func TestEliminateSkipsAfterRemoval(t *testing.T) {
	chain := func() *network.Network {
		n := network.New("chain")
		a, b := n.AddPI("a"), n.AddPI("b")
		x := n.AddLogic("x", []*network.Node{a}, logic.MustParseCover(1, "0"))
		w := n.AddLogic("w", []*network.Node{b}, logic.MustParseCover(1, "0"))
		n.AddPO("o", n.AddLogic("y", []*network.Node{x, w}, logic.MustParseCover(2, "11")))
		return n
	}
	constant := func() *network.Network {
		n := network.New("constant")
		a, b := n.AddPI("a"), n.AddPI("b")
		s := n.AddLatch("s", nil, network.V0)
		p := n.AddLogic("p", []*network.Node{s.Output, a}, logic.MustParseCover(2, "11"))
		k := n.AddConst("k", true)
		q := n.AddLogic("q", []*network.Node{k, a, b}, logic.MustParseCover(3, "11-", "--1"))
		r := n.AddLogic("r", []*network.Node{k, q, p}, logic.MustParseCover(3, "1--", "-1-", "--1"))
		s.Driver = r
		n.AddPO("o", r)
		return n
	}
	for _, tc := range []struct {
		name              string
		build             func() *network.Network
		shifted, visitAll []int // eliminations per pass
	}{
		{"chain", chain, []int{1, 1}, []int{2}},
		{"constant", constant, []int{2, 1}, []int{2}},
	} {
		want := tc.build()
		shifted, _ := referenceEliminate(context.Background(), want, 0, true)
		visitAll, _ := referenceEliminate(context.Background(), tc.build(), 0, false)
		if !slices.Equal(shifted, tc.shifted) || !slices.Equal(visitAll, tc.visitAll) {
			t.Fatalf("%s: eliminations per pass %v shifted and %v visiting all, want %v and %v",
				tc.name, shifted, visitAll, tc.shifted, tc.visitAll)
		}
		got := tc.build()
		count, err := Eliminate(context.Background(), got, 0)
		if err != nil || count != tc.shifted[0]+tc.shifted[1] {
			t.Fatalf("%s: Eliminate = %d, %v; want %d", tc.name, count, err, tc.shifted[0]+tc.shifted[1])
		}
		if g, w := writeBLIF(t, got), writeBLIF(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s: networks differ after eliminate:\n%s\nwant\n%s", tc.name, g, w)
		}
	}
}
