package flows

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/blif"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/reach"
	"repro/internal/retime"
)

// TestPlanetIsDeterministic: planet's script netlist, and the BDD node
// counts of its DC extraction (reach on the min-period retimed script
// output, as the retime flow runs it) and of its verification (the product
// with its source), repeat exactly over 10 in-process calls.
func TestPlanetIsDeterministic(t *testing.T) {
	ctx := context.Background()
	src, _ := flowOutput(t, "planet", "")
	var netlist0 []byte
	var dc0, verify0 int
	for run := 0; run < 10; run++ {
		sd, err := ScriptDelay(ctx, src, genlib.Lib2(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := blif.Write(&b, sd.Net); err != nil {
			t.Fatal(err)
		}
		ret, _, err := retime.MinPeriod(ctx, sd.Net, nil)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := reach.Analyze(ctx, ret, reach.DefaultLimits, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := network.Pair(src, sd.Net)
		if err != nil {
			t.Fatal(err)
		}
		v, err := reach.AnalyzeProduct(ctx, src, sd.Net, p, 0, reach.DefaultLimits, nil)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			netlist0, dc0, verify0 = b.Bytes(), dc.Stats.Nodes, v.Stats.Nodes
			continue
		}
		if !bytes.Equal(b.Bytes(), netlist0) {
			t.Fatalf("run %d: script netlist differs from run 0", run)
		}
		if dc.Stats.Nodes != dc0 || v.Stats.Nodes != verify0 {
			t.Fatalf("run %d: BDD nodes DC %d verify %d, run 0 had %d and %d",
				run, dc.Stats.Nodes, v.Stats.Nodes, dc0, verify0)
		}
	}
}
