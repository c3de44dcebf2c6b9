package bench

import (
	"testing"

	"repro/internal/kiss"
	"repro/internal/network"
	"repro/internal/retime"
	"repro/internal/sim"
	"repro/internal/timing"
)

func TestPaperExampleShape(t *testing.T) {
	n := BuildPaperExample()
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	p, err := timing.Period(n)
	if err != nil || p != 3 {
		t.Fatalf("period %v err %v, want 3", p, err)
	}
	if len(n.Latches) != 3 {
		t.Fatalf("latches = %d", len(n.Latches))
	}
	// The v register must be a multi-fanout stem (the enabler of DCret).
	v := n.FindNode("v")
	if n.NumFanouts(v) < 2 {
		t.Fatal("v must have multiple fanouts")
	}
}

func TestEmbeddedFSMsParseAndSynthesize(t *testing.T) {
	for name, src := range SmallFSMs() {
		f, err := kiss.ParseString(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := f.Synthesize(kiss.Binary)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(n.Latches) == 0 || len(n.POs) != f.NumOut {
			t.Fatalf("%s: shape wrong: %v", name, n.Stat())
		}
	}
}

func TestEmbeddedFSMDeterministicRows(t *testing.T) {
	// Every (state, input) pair must resolve to at most one transition in
	// the embedded machines — nondeterminism would corrupt synthesis.
	for name, src := range SmallFSMs() {
		f, err := kiss.ParseString(src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for mt := 0; mt < 1<<uint(f.NumIn); mt++ {
			for _, st := range f.States {
				hits := 0
				for _, tr := range f.Transitions {
					if tr.From != st && tr.From != "*" {
						continue
					}
					match := true
					for i := 0; i < f.NumIn; i++ {
						bit := mt&(1<<uint(i)) != 0
						switch tr.In[i] {
						case '0':
							if bit {
								match = false
							}
						case '1':
							if !bit {
								match = false
							}
						}
					}
					if match {
						hits++
					}
				}
				if hits > 1 {
					t.Fatalf("%s: state %s input %b matches %d rows", name, st, mt, hits)
				}
			}
		}
	}
}

func TestRandomFSMDeterministicAndConnected(t *testing.T) {
	f := RandomFSM("x", 12, 3, 4, 7)
	if len(f.States) != 12 || f.NumIn != 3 || f.NumOut != 4 {
		t.Fatalf("profile not honoured: %d states %d in %d out", len(f.States), f.NumIn, f.NumOut)
	}
	n, err := f.Synthesize(kiss.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	// Determinism of generation.
	g := RandomFSM("x", 12, 3, 4, 7)
	if len(g.Transitions) != len(f.Transitions) {
		t.Fatal("RandomFSM not deterministic")
	}
	for i := range g.Transitions {
		if g.Transitions[i] != f.Transitions[i] {
			t.Fatal("RandomFSM not deterministic")
		}
	}
}

func TestSyntheticProfiles(t *testing.T) {
	p := Profile{Name: "t", PIs: 5, POs: 3, FFs: 8, Gates: 40, Seed: 3}
	n := Synthetic(p)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	st := n.Stat()
	if st.PIs != 5 || st.POs != 3 {
		t.Fatalf("io mismatch: %v", st)
	}
	if st.Latches == 0 || st.Latches > 8 {
		t.Fatalf("latch count %d out of profile", st.Latches)
	}
	// Determinism.
	m := Synthetic(p)
	if m.Stat() != st {
		t.Fatal("Synthetic not deterministic")
	}
	// Simulable.
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]bool, st.PIs)
	for c := 0; c < 50; c++ {
		s.StepBits(bits)
	}
}

func TestSyntheticHasFeedbackAndStems(t *testing.T) {
	// The generator must produce FSM structure: some register in some
	// seed's circuit must sit on a feedback loop and have multiple
	// fanouts — otherwise the resynthesis experiments are vacuous.
	found := false
	for seed := int64(1); seed <= 5 && !found; seed++ {
		n := Synthetic(Profile{Name: "f", PIs: 3, POs: 2, FFs: 5, Gates: 24, Seed: seed})
		for _, l := range n.Latches {
			if n.NumFanouts(l.Output) >= 2 {
				// Feedback: driver cone reaches some register output.
				tfi := transitiveFanin(n, l.Driver)
				for _, l2 := range n.Latches {
					if tfi[l2.Output.ID] {
						found = true
						break
					}
				}
			}
			if found {
				break
			}
		}
	}
	if !found {
		t.Fatal("no multi-fanout feedback registers in synthetic circuits")
	}
}

func TestS27Reconstruction(t *testing.T) {
	c, ok := ByName("s27")
	if !ok {
		t.Fatal("s27 missing from registry")
	}
	n, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stat()
	if st.PIs != 4 || st.POs != 1 || st.Latches != 3 || st.LogicNodes != 10 {
		t.Fatalf("s27 shape: %v (want 4/1/3/10)", st)
	}
	// Behavioural smoke: with all inputs 0, the output follows the
	// documented s27 reset behaviour (G17 = NOT G11; G11 = NOR(G5,G9)).
	s, _ := sim.New(n)
	out := s.StepBits([]bool{false, false, false, false})
	if len(out) != 1 {
		t.Fatal("one PO expected")
	}
}

func TestRegistryBuildsAllSmallEntries(t *testing.T) {
	for _, c := range TableI() {
		if c.Name == "s5378" || c.Name == "s1196" || c.Name == "s1238" {
			continue // exercised by the benchmark harness, too slow here
		}
		n, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if err := n.Check(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestPipelineExampleIsFeedForward(t *testing.T) {
	// Feedback = a cycle in the latch dependency graph (latch A depends on
	// latch B when B's output is in the combinational fanin of A's driver).
	n := BuildPipelineExample()
	dep := map[*network.Latch][]*network.Latch{}
	for _, a := range n.Latches {
		tfi := transitiveFanin(n, a.Driver)
		for _, b := range n.Latches {
			if tfi[b.Output.ID] {
				dep[a] = append(dep[a], b)
			}
		}
	}
	var onStack, done map[*network.Latch]bool
	var cyclic bool
	var visit func(l *network.Latch)
	visit = func(l *network.Latch) {
		if done[l] || cyclic {
			return
		}
		if onStack[l] {
			cyclic = true
			return
		}
		onStack[l] = true
		for _, d := range dep[l] {
			visit(d)
		}
		onStack[l] = false
		done[l] = true
	}
	onStack, done = map[*network.Latch]bool{}, map[*network.Latch]bool{}
	for _, l := range n.Latches {
		visit(l)
	}
	if cyclic {
		t.Fatal("pipeline example must have no feedback cycles")
	}
}

func TestSingleFanoutExampleProperty(t *testing.T) {
	n := BuildSingleFanoutExample()
	for _, l := range n.Latches {
		if n.NumFanouts(l.Output) != 1 {
			t.Fatalf("register %s must have exactly one fanout", l.Name)
		}
	}
	// And it must still be a real FSM (retimable in principle).
	if _, err := retime.BuildGraph(n); err != nil {
		t.Fatal(err)
	}
	var _ *network.Network = n
}

// transitiveFanin returns the combinational transitive fanin of v
// (inclusive), stopping at sources, as a set indexed by Node.ID.
func transitiveFanin(n *network.Network, v *network.Node) []bool {
	seen := make([]bool, n.NumIDs())
	for stack := []*network.Node{v}; len(stack) > 0; {
		v, stack = stack[len(stack)-1], stack[:len(stack)-1]
		if !seen[v.ID] {
			seen[v.ID] = true
			if !v.IsSource() {
				stack = append(stack, v.Fanins...)
			}
		}
	}
	return seen
}
