package table

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
)

// TestPaperShapeClaims pins the qualitative claims of the paper's Table I
// on the flows tablegen runs (SOP substrate, verification off): where
// conventional retiming fails, resynthesis still beats the script.delay
// clock, and where Algorithm 1 finds no faster circuit the technique
// declines with a "not resynthesizable" note.
func TestPaperShapeClaims(t *testing.T) {
	lib := genlib.Lib2()
	run := func(t *testing.T, name string) (sd, ret, rsyn *flows.Result) {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no bench circuit %q", name)
		}
		src, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		if sd, ret, rsyn, err = flows.RunAll(context.Background(), src, lib, flows.Config{}); err != nil {
			t.Fatal(err)
		}
		return sd, ret, rsyn
	}
	for _, name := range []string{"s208", "s344", "s641"} {
		t.Run("retiming-fails-resynthesis-wins/"+name, func(t *testing.T) {
			sd, ret, rsyn := run(t, name)
			if !strings.HasPrefix(ret.Note, "retiming failed") {
				t.Errorf("retime note %q, want a retiming failure", ret.Note)
			}
			if rsyn.Note != "" {
				t.Errorf("resyn note %q, want none", rsyn.Note)
			}
			if rsyn.Clk >= sd.Clk {
				t.Errorf("resyn clk %.2f, want below script clk %.2f", rsyn.Clk, sd.Clk)
			}
		})
	}
	for _, name := range []string{"ex2", "bbtas", "bbara"} {
		t.Run("resynthesis-declines/"+name, func(t *testing.T) {
			_, _, rsyn := run(t, name)
			const want = "not resynthesizable: no cycle-time improvement"
			if !strings.HasPrefix(rsyn.Note, want) {
				t.Errorf("resyn note %q, want prefix %q", rsyn.Note, want)
			}
		})
	}
}
