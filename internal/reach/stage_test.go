package reach_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/retime"
)

// dcExtractInput returns the network the retime flow hands to its DC
// extraction for circuit on substrate: the script output after the
// guarded min-period retiming, or the script output itself when that
// retiming rolls back (the cell then carries the retiming footnote).
func dcExtractInput(tb testing.TB, circuit, substrate string) *network.Network {
	tb.Helper()
	c, ok := bench.ByName(circuit)
	if !ok {
		tb.Fatalf("%s not in registry", circuit)
	}
	src, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	sd, err := flows.ScriptDelay(ctx, src, genlib.Lib2(), flows.Config{Substrate: substrate})
	if err != nil {
		tb.Fatal(err)
	}
	ret, _ := guard.Tx(ctx, "retime.min_period", sd.Net, guard.TxOptions{},
		func(ctx context.Context, work *network.Network) (*network.Network, int, error) {
			r, _, err := retime.MinPeriod(ctx, work, nil)
			return r, 0, err
		})
	return ret
}

// TestStagedBudgetRefusesExactlyTheDoomed runs the DC extraction of every
// Table I row's retime flow, on both substrates, under the staged node
// budget and under the full one. The stage must refuse exactly the
// analyses that trip the 2,000,000-node limit anyway, and every analysis it
// lets through must end as the full-budget one does: same depth, same
// nodes. Rows past the latch limit build no BDD under either and are
// skipped.
func TestStagedBudgetRefusesExactlyTheDoomed(t *testing.T) {
	ctx := context.Background()
	lim := reach.DefaultLimits
	for _, sub := range flows.SubstrateNames() {
		var refused []string
		for _, c := range bench.TableI() {
			n := dcExtractInput(t, c.Name, sub)
			if len(n.Latches) > lim.MaxLatches {
				continue
			}
			staged, serr := reach.Analyze(ctx, n, lim, nil)
			full, ferr := reach.AnalyzeFullBudget(ctx, n, lim, nil)
			if ferr != nil && !errors.Is(ferr, reach.ErrTooLarge) {
				t.Fatalf("%s/%s full budget: %v", sub, c.Name, ferr)
			}
			if serr != nil && !errors.Is(serr, reach.ErrTooLarge) {
				t.Fatalf("%s/%s staged: %v", sub, c.Name, serr)
			}
			switch {
			case (serr != nil) != (ferr != nil):
				t.Errorf("%s/%s: staged error %v, full-budget error %v", sub, c.Name, serr, ferr)
			case serr != nil:
				if !strings.Contains(ferr.Error(), "2000000 BDD nodes") {
					t.Errorf("%s/%s: full-budget run did not trip the node limit: %v", sub, c.Name, ferr)
				}
				if !strings.Contains(serr.Error(), "after 0 image steps (relation stage 62500 of limit 2000000)") {
					t.Errorf("%s/%s: refusal is not the stage's: %v", sub, c.Name, serr)
				}
				refused = append(refused, c.Name)
			case staged.Depth != full.Depth || staged.Stats.Nodes != full.Stats.Nodes:
				t.Errorf("%s/%s: staged depth %d, %d nodes; full budget depth %d, %d nodes",
					sub, c.Name, staged.Depth, staged.Stats.Nodes, full.Depth, full.Stats.Nodes)
			}
		}
		if want := []string{"s641", "s1196", "s1238"}; !slices.Equal(refused, want) {
			t.Errorf("%s: stage refused %v, want %v", sub, refused, want)
		}
	}
}
