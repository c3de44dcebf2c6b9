package sweep_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
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
			res.Wall = 0
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
	for _, name := range []string{"s382", "s641"} {
		n := build(t, name)
		check(name+" vs clone", func(workers int) (*sweep.Result, error) {
			return sweep.ProveEquivalent(context.Background(), n, n.Clone(), 0, sweep.Options{Workers: workers})
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
