package blif

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/network"
	"repro/internal/sim"
)

const toyBlif = `
# a 2-bit counter with enable
.model cnt2
.inputs en
.outputs carry
.latch d0 s0 0
.latch d1 s1 0
.names s0 en d0
10 1
01 1
.names s0 en t0
11 1
.names s1 t0 d1
10 1
01 1
.names s1 s0 carry
11 1
.end
`

func TestReadBasic(t *testing.T) {
	n, err := ParseString(toyBlif)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "cnt2" {
		t.Fatalf("model name %q", n.Name)
	}
	st := n.Stat()
	if st.PIs != 1 || st.POs != 1 || st.Latches != 2 || st.LogicNodes != 4 {
		t.Fatalf("stats %v", st)
	}
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, false, true}
	for i, w := range want {
		if got := s.StepBits([]bool{true})[0]; got != w {
			t.Fatalf("cycle %d: carry=%v want %v", i, got, w)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	n, err := ParseString(toyBlif)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	m, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	if err := bitsim.RandomEquivalent(n, m, 0, 300, 5, bitsim.Options{}); err != nil {
		t.Fatalf("round trip not equivalent: %v", err)
	}
}

func TestOffsetRows(t *testing.T) {
	// .names with 0-rows defines the off-set: f = NOT(a AND b) here.
	src := `
.model offset
.inputs a b
.outputs y
.names a b y
11 0
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(n)
	for m := 0; m < 4; m++ {
		a, b := m&1 != 0, m&2 != 0
		got := s.StepBits([]bool{a, b})[0]
		if got != !(a && b) {
			t.Fatalf("NAND wrong at a=%v b=%v", a, b)
		}
	}
}

func TestConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs k1 k0
.names k1
1
.names k0
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sim.New(n)
	out := s.StepBits([]bool{true})
	if !out[0] || out[1] {
		t.Fatalf("constants wrong: %v", out)
	}
}

func TestOutOfOrderDefinitions(t *testing.T) {
	// g2 defined before its fanin g1.
	src := `
.model ooo
.inputs a b
.outputs y
.names g1 b y
11 1
.names a g1
1 1
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLogicNodes() != 2 {
		t.Fatal("wrong node count")
	}
}

func TestLatchInitVariants(t *testing.T) {
	src := `
.model li
.inputs a
.outputs y
.latch a q0 0
.latch a q1 1
.latch a q2 3
.latch a q3
.names q0 q1 q2 q3 y
1111 1
.end
`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []network.Value{network.V0, network.V1, network.VX, network.VX}
	for i, l := range n.Latches {
		if l.Init != want[i] {
			t.Fatalf("latch %d init %v want %v", i, l.Init, want[i])
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		".model x\n.inputs a\n.outputs y\n.names a y\n11 1\n.end",     // cube too wide
		".model x\n.inputs a\n.outputs y\n.end",                       // undefined output
		".model x\n.inputs a\n.outputs a\n1 1\n.end",                  // row outside .names
		".model x\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end", // mixed on/off rows
		".model x\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end",    // dup input
		".model x\n.inputs a\n.outputs y\n.names y y\n1 1\n.end",      // self-cycle
	}
	for i, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
}

func TestContinuationAndComments(t *testing.T) {
	src := ".model c\n.inputs \\\n a b # trailing\n.outputs y\n.names a b y\n11 1\n.end\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 2 {
		t.Fatalf("continuation line mishandled: %d PIs", len(n.PIs))
	}
}

func TestPOBufferEmitted(t *testing.T) {
	// A PO driven directly by a PI requires a pass-through on write.
	src := ".model p\n.inputs a\n.outputs a\n.end"
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	m, err := ParseString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := bitsim.RandomEquivalent(n, m, 0, 50, 2, bitsim.Options{}); err != nil {
		t.Fatal(err)
	}
}
