package timing

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/network"
)

// chain builds a linear chain of k buffers from a PI to a PO.
func chain(t *testing.T, k int) *network.Network {
	t.Helper()
	n := network.New("chain")
	prev := n.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	for i := 0; i < k; i++ {
		prev = n.AddLogic("", []*network.Node{prev}, buf.Clone())
	}
	n.AddPO("y", prev)
	return n
}

func TestChainPeriod(t *testing.T) {
	n := chain(t, 5)
	p, err := Period(n)
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 {
		t.Fatalf("period = %v, want 5", p)
	}
}

func TestCriticalPathExtraction(t *testing.T) {
	// Diamond: a -> g1 -> g3, a -> g2a -> g2b -> g3. Longer branch via g2*.
	n := network.New("d")
	a := n.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	and := logic.MustParseCover(2, "11")
	g1 := n.AddLogic("g1", []*network.Node{a}, buf.Clone())
	g2a := n.AddLogic("g2a", []*network.Node{a}, buf.Clone())
	g2b := n.AddLogic("g2b", []*network.Node{g2a}, buf.Clone())
	g3 := n.AddLogic("g3", []*network.Node{g1, g2b}, and)
	n.AddPO("y", g3)
	res, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 3 {
		t.Fatalf("period = %v", res.Period)
	}
	src, path := res.CriticalPath()
	if src != a {
		t.Fatalf("source = %v", src)
	}
	if len(path) != 3 || path[0] != g2a || path[1] != g2b || path[2] != g3 {
		t.Fatalf("path = %v", path)
	}
}

func TestPeriodAcrossRegisters(t *testing.T) {
	// PI -> g (2 levels) -> latch -> h (3 levels) -> PO. Period is the max
	// combinational segment: 3.
	n := network.New("seq")
	a := n.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	g1 := n.AddLogic("g1", []*network.Node{a}, buf.Clone())
	g2 := n.AddLogic("g2", []*network.Node{g1}, buf.Clone())
	l := n.AddLatch("s", g2, network.V0)
	h1 := n.AddLogic("h1", []*network.Node{l.Output}, buf.Clone())
	h2 := n.AddLogic("h2", []*network.Node{h1}, buf.Clone())
	h3 := n.AddLogic("h3", []*network.Node{h2}, buf.Clone())
	n.AddPO("y", h3)
	p, err := Period(n)
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Fatalf("period = %v, want 3", p)
	}
}

func TestLatchDriverIsSink(t *testing.T) {
	// The longest path ends at a register data input, not a PO.
	n := network.New("sink")
	a := n.AddPI("a")
	buf := logic.MustParseCover(1, "1")
	g1 := n.AddLogic("g1", []*network.Node{a}, buf.Clone())
	g2 := n.AddLogic("g2", []*network.Node{g1}, buf.Clone())
	g3 := n.AddLogic("g3", []*network.Node{g2}, buf.Clone())
	n.AddLatch("s", g3, network.V0)
	n.AddPO("y", g1)
	res, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 3 || res.CritSink != g3 {
		t.Fatalf("period=%v sink=%v", res.Period, res.CritSink)
	}
}

type fakeGate struct {
	name   string
	area   float64
	delays []float64
}

func (g fakeGate) GateName() string       { return g.name }
func (g fakeGate) GateArea() float64      { return g.area }
func (g fakeGate) PinDelay(i int) float64 { return g.delays[i] }

func TestMappedDelayUsesGateAnnotations(t *testing.T) {
	n := network.New("m")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and := logic.MustParseCover(2, "11")
	g := n.AddLogic("g", []*network.Node{a, b}, and)
	g.Gate = fakeGate{"and2", 2, []float64{1.5, 2.5}}
	n.AddPO("y", g)
	p, err := Period(n)
	if err != nil {
		t.Fatal(err)
	}
	if p != 2.5 {
		t.Fatalf("mapped period = %v, want 2.5", p)
	}
}

func TestEmptyNetwork(t *testing.T) {
	n := network.New("empty")
	n.AddPI("a")
	p, err := Period(n)
	if err != nil || p != 0 {
		t.Fatalf("period=%v err=%v", p, err)
	}
}
