package kiss

import (
	"testing"

	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/sim"
)

// A small traffic-light style Moore-ish machine used across tests.
const lightKiss = `
.i 1
.o 2
.s 3
.r GREEN
0 GREEN GREEN 10
1 GREEN YELLOW 10
- YELLOW RED 01
0 RED RED 00
1 RED GREEN 00
.e
`

func TestParse(t *testing.T) {
	f, err := ParseString(lightKiss, "light")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumIn != 1 || f.NumOut != 2 {
		t.Fatalf("io counts: %d %d", f.NumIn, f.NumOut)
	}
	if len(f.States) != 3 || f.States[0] != "GREEN" {
		t.Fatalf("states: %v (reset must be first)", f.States)
	}
	if len(f.Transitions) != 5 {
		t.Fatalf("%d transitions", len(f.Transitions))
	}
}

func TestNumStateBits(t *testing.T) {
	f, _ := ParseString(lightKiss, "light")
	if f.NumStateBits(Binary) != 2 {
		t.Fatalf("binary bits = %d", f.NumStateBits(Binary))
	}
	if f.NumStateBits(OneHot) != 3 {
		t.Fatalf("onehot bits = %d", f.NumStateBits(OneHot))
	}
}

// walk drives the synthesized machine through a scripted input sequence and
// checks outputs against the symbolic FSM semantics.
func walk(t *testing.T, n *network.Network, f *FSM, inputs []bool) {
	t.Helper()
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	state := f.Reset
	for cyc, in := range inputs {
		// Find the matching transition symbolically.
		var tr *Transition
		for i := range f.Transitions {
			c := f.Transitions[i]
			if c.From != state {
				continue
			}
			ch := c.In[0]
			if ch == '-' || (ch == '1') == in {
				tr = &f.Transitions[i]
				break
			}
		}
		if tr == nil {
			t.Fatalf("cycle %d: no transition from %s", cyc, state)
		}
		got := s.StepBits([]bool{in})
		for o := 0; o < f.NumOut; o++ {
			switch tr.Out[o] {
			case '0':
				if got[o] {
					t.Fatalf("cycle %d state %s: out%d=1 want 0", cyc, state, o)
				}
			case '1':
				if !got[o] {
					t.Fatalf("cycle %d state %s: out%d=0 want 1", cyc, state, o)
				}
			}
		}
		state = tr.To
	}
}

func TestSynthesizeBinaryMatchesSemantics(t *testing.T) {
	f, _ := ParseString(lightKiss, "light")
	n, err := f.Synthesize(Binary)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 2 || len(n.PIs) != 1 || len(n.POs) != 2 {
		t.Fatalf("shape: %v", n.Stat())
	}
	seq := []bool{false, true, false, true, true, false, false, true, true, true}
	walk(t, n, f, seq)
}

func TestSynthesizeOneHotMatchesSemantics(t *testing.T) {
	f, _ := ParseString(lightKiss, "light")
	n, err := f.Synthesize(OneHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 3 {
		t.Fatalf("one-hot latches = %d", len(n.Latches))
	}
	seq := []bool{true, true, false, true, false, false, true, true}
	walk(t, n, f, seq)
}

func TestEncodingsEquivalent(t *testing.T) {
	f, _ := ParseString(lightKiss, "light")
	nb, err := f.Synthesize(Binary)
	if err != nil {
		t.Fatal(err)
	}
	nh, err := f.Synthesize(OneHot)
	if err != nil {
		t.Fatal(err)
	}
	if err := bitsim.RandomEquivalent(nb, nh, 0, 400, 11, bitsim.Options{}); err != nil {
		t.Fatalf("binary vs one-hot: %v", err)
	}
}

func TestStarFromState(t *testing.T) {
	src := `
.i 1
.o 1
.r A
1 * A 1
0 A B 0
0 B B 0
.e
`
	f, err := ParseString(src, "star")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Synthesize(Binary)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(n)
	// input 1 from anywhere returns to A emitting 1.
	s.StepBits([]bool{false}) // A->B out 0
	out := s.StepBits([]bool{true})
	if !out[0] {
		t.Fatal("star transition not applied")
	}
}

func TestResetStateGetsZeroCode(t *testing.T) {
	src := `
.i 1
.o 1
.r S1
- S0 S1 0
- S1 S0 1
.e
`
	f, err := ParseString(src, "r")
	if err != nil {
		t.Fatal(err)
	}
	if f.States[0] != "S1" {
		t.Fatalf("reset state not first: %v", f.States)
	}
	n, err := f.Synthesize(Binary)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range n.Latches {
		if l.Init != network.V0 {
			t.Fatal("binary init must be all-zero (reset = code 0)")
		}
	}
	// First output observed must follow S1's transition (out 1).
	s, _ := sim.New(n)
	if !s.StepBits([]bool{false})[0] {
		t.Fatal("machine did not start in reset state S1")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		".i 2\n.o 1\n1 A B 1\n.e", // input width mismatch
		".i 1\n.o 2\n1 A B 1\n.e", // output width mismatch
		".i 1\n.o 1\n1 A B\n.e",   // missing field
		".i 1\n.o 1\n.e",          // no states
	}
	for i, src := range bad {
		if _, err := ParseString(src, "bad"); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
}
