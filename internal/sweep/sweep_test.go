package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/network"
	"repro/internal/sweep"
)

// build constructs a registry circuit by name.
func build(t *testing.T, name string) *network.Network {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("circuit %q not in registry", name)
	}
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const twins = `
.model twins
.inputs x
.outputs o
.latch d q1 0
.latch d q2 0
.latch z  q3 0
.names x q1 d
10 1
01 1
.names q1 q2 o
11 1
.names q3 z
1 1
.end
`

// TestRegistersTwins proves the hand-built equivalences: q1 and q2 share
// a driver and an initial value, q3 feeds itself from 0 and is stuck at
// the constant.
func TestRegistersTwins(t *testing.T) {
	n, err := blif.ParseString(twins)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Registers(context.Background(), n, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 1 || !reflect.DeepEqual(res.Classes[0], []int{0, 1}) {
		t.Fatalf("Classes = %v, want [[0 1]]", res.Classes)
	}
	if !reflect.DeepEqual(res.Const, []int{2}) {
		t.Fatalf("Const = %v, want [2]", res.Const)
	}
	if res.Rounds == 0 || res.SatCalls == 0 {
		t.Fatalf("no proof effort recorded: %+v", res)
	}
}

// TestProveEquivalentSelf proves a circuit against its own clone; the
// product AIG strashes both halves onto the same nodes, so every output
// obligation is trivially UNSAT.
func TestProveEquivalentSelf(t *testing.T) {
	n := build(t, "bbtas")
	res, err := sweep.ProveEquivalent(context.Background(), n, n.Clone(), 0, sweep.Options{})
	if err != nil {
		t.Fatalf("self-equivalence not proved: %v", err)
	}
	if res.SatCalls == 0 && res.Candidates > 0 {
		t.Fatalf("candidates without proof effort: %+v", res)
	}
}

const one0 = `
.model m
.inputs x
.outputs o
.latch d q 0
.names x q d
10 1
01 1
.names q o
1 1
.end
`

const one1 = `
.model m
.inputs x
.outputs o
.latch d q 1
.names x q d
10 1
01 1
.names q o
1 1
.end
`

// TestProveEquivalentDisproof: identical next-state logic but different
// initial values — the outputs differ at cycle 0, and the base instance
// must produce a genuine bounded counterexample, not ErrUnknown.
func TestProveEquivalentDisproof(t *testing.T) {
	a, err := blif.ParseString(one0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := blif.ParseString(one1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep.ProveEquivalent(context.Background(), a, b, 0, sweep.Options{})
	var ne *sweep.NotEquivalentError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want *NotEquivalentError", err)
	}
	if ne.PO != "o" || ne.Cycle != 0 {
		t.Fatalf("counterexample = %+v, want PO o at cycle 0", ne)
	}
}

// TestDelayedDisproof: with a delayed-replacement prefix the same pair
// becomes equivalent (the initial-value difference washes out after one
// cycle through the shared next-state function? it does not for this
// self-loop — but a delay of 0 vs 1 must at least change the reported
// cycle). Here we pin the delay plumbing: the cycle-0 difference is
// ignored at delay 1, so any disproof must quote a cycle >= 1.
func TestDelayedDisproofHonoursPrefix(t *testing.T) {
	a, err := blif.ParseString(one0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := blif.ParseString(one1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sweep.ProveEquivalent(context.Background(), a, b, 1, sweep.Options{})
	var ne *sweep.NotEquivalentError
	if errors.As(err, &ne) && ne.Cycle < 1 {
		t.Fatalf("disproof cycle %d inside the delay-1 prefix", ne.Cycle)
	}
}

// lateFlag is an 8-bit counter from 0 that counts while en is high, plus
// a flag register f driving the only output. With sticky set, f becomes 1
// once the counter reads 200 and stays 1; otherwise f holds 0 forever.
func lateFlag(sticky bool) string {
	var b strings.Builder
	b.WriteString(".model lateflag\n.inputs en\n.outputs o\n.names en t0\n1 1\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, ".latch n%d c%d 0\n.names t%d c%d n%d\n10 1\n01 1\n", i, i, i, i, i)
		fmt.Fprintf(&b, ".names t%d c%d t%d\n11 1\n", i, i, i+1)
	}
	// 200 = 0b11001000, listed c0 first.
	b.WriteString(".names c0 c1 c2 c3 c4 c5 c6 c7 hit\n00010011 1\n.latch nf f 0\n")
	if sticky {
		b.WriteString(".names f hit nf\n1- 1\n-1 1\n")
	} else {
		b.WriteString(".names f nf\n1 1\n")
	}
	b.WriteString(".names f o\n1 1\n.end\n")
	return b.String()
}

// TestInductionStepRefutesLateDivergence: the sticky flag first rises at
// cycle 201, past every simulated step and every base frame, so the
// candidate "flag ≡ 0" survives simulation and the bounded check, and
// only the induction step can refute it: a state with the counter at 200
// satisfies every class equality and sets the flag one cycle later. An
// engine that discharged a step obligation on the member's substituted
// literal instead of its own function, or skipped the step solve, would
// call the flag constant and the two circuits equivalent.
func TestInductionStepRefutesLateDivergence(t *testing.T) {
	a, err := blif.ParseString(lateFlag(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := blif.ParseString(lateFlag(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.ProveEquivalent(context.Background(), a, b, 0, sweep.Options{}); err == nil {
		t.Fatal("circuits whose outputs differ from cycle 201 on were proved equivalent")
	}
	res, err := sweep.Registers(context.Background(), b, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flag := -1
	for i, la := range b.Latches {
		if la.Output.Name == "f" {
			flag = i
		}
	}
	if flag < 0 {
		t.Fatal("flag latch not found")
	}
	for _, li := range res.Const {
		if li == flag {
			t.Fatalf("sticky flag (latch %d) reported constant 0: Const = %v", flag, res.Const)
		}
	}
}

// heldOnes has two registers q1, q2 that hold their initial 1 forever,
// so they form one class, and a register r that is 1 only in the
// initial state. The 26-input AND n of r, q2 and 24 inputs is 0 on every
// simulated vector and from cycle 1 on, so the induction step holds for
// the candidate n ≡ 0 and only the base frame refutes it.
func heldOnes() string {
	var b strings.Builder
	b.WriteString(".model heldones\n.inputs")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString("\n.outputs o p\n.latch q1 q1 1\n.latch q2 q2 1\n.latch zero r 1\n.names zero\n.names r q2")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString(" n\n" + strings.Repeat("1", 26) + " 1\n.names n o\n1 1\n.names q1 q2 p\n11 1\n.end\n")
	return b.String()
}

// TestBaseCexStartsFromDeclaredInit: the base counterexample to n ≡ 0
// has a cone that reaches q2 and not q1. Replaying it must start q1 at
// its declared 1, not at the 0 an unencoded literal reads as, or the
// replay splits the true class {q1, q2}.
func TestBaseCexStartsFromDeclaredInit(t *testing.T) {
	n, err := blif.ParseString(heldOnes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Registers(context.Background(), n, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cexes == 0 {
		t.Fatal("no counterexample: n ≡ 0 was not refuted")
	}
	if !reflect.DeepEqual(res.Classes, [][]int{{0, 1}}) {
		t.Fatalf("Classes = %v, want [[0 1]]", res.Classes)
	}
}

// TestProveEquivalentDeepens: simple induction is inconclusive on the
// retime outputs of s400 and s382 against their sources, and the engine
// deepens K until the proof closes, at K = 2 and K = 4.
func TestProveEquivalentDeepens(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		k    int
	}{{"s400", 2}, {"s382", 4}} {
		src := build(t, tc.name)
		r, err := flows.RunFlow(ctx, "retime", src, genlib.Lib2(), flows.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := sweep.ProveEquivalent(ctx, src, r.Net, r.PrefixK, sweep.Options{})
		if err != nil {
			t.Fatalf("%s retime: %v", tc.name, err)
		}
		if res.K != tc.k {
			t.Errorf("%s retime proved at K = %d, want %d", tc.name, res.K, tc.k)
		}
	}
}

// TestSweepDeterminism demands byte-identical results at any worker
// width: the fixed chunking must make the counterexample stream — and
// through it every derived number — independent of scheduling. It covers
// register sweeping of one circuit and the equivalence proof of a circuit
// against its clone.
func TestSweepDeterminism(t *testing.T) {
	check := func(name string, run func(workers int) (*sweep.Result, error)) {
		t.Helper()
		var got []*sweep.Result
		for _, workers := range []int{1, 8} {
			res, err := run(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got = append(got, res)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: workers=1 gave %+v, workers=8 gave %+v", name, got[0], got[1])
		}
	}
	for _, name := range []string{"planet", "s510", "s820"} {
		n := build(t, name)
		check(name, func(workers int) (*sweep.Result, error) {
			return sweep.Registers(context.Background(), n, sweep.Options{Workers: workers})
		})
	}
	for _, tc := range []struct {
		name string
		k    int
	}{{"s382", 1}, {"s641", 1}, {"s641", 2}} {
		n := build(t, tc.name)
		check(fmt.Sprintf("%s vs clone K=%d", tc.name, tc.k), func(workers int) (*sweep.Result, error) {
			return sweep.ProveEquivalentFrom(context.Background(), n, n.Clone(), 0, tc.k, sweep.Options{Workers: workers})
		})
	}
}

// TestCancellation: an already-cancelled context must abort the sweep
// with an error instead of running the full proof.
func TestCancellation(t *testing.T) {
	n := build(t, "planet")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweep.Registers(ctx, n, sweep.Options{}); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}
