package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/network"
)

// Profile describes the shape of a synthetic sequential circuit. The
// ISCAS'89-style circuits used in Table I are generated from profiles
// matching the published PI/PO/FF/gate counts of the original benchmarks
// (the netlists themselves are not redistributable; see DESIGN.md §2).
type Profile struct {
	Name  string
	PIs   int
	POs   int
	FFs   int
	Gates int
	Seed  int64
}

// Synthetic deterministically generates a gate-level FSM with the given
// profile: random two-input-dominated logic, registers woven into the
// combinational structure (so critical paths start at multi-fanout state
// registers), and guaranteed feedback through every register file.
func Synthetic(p Profile) *network.Network {
	r := rand.New(rand.NewSource(p.Seed))
	n := network.New(p.Name)
	var pis []*network.Node
	for i := 0; i < p.PIs; i++ {
		pis = append(pis, n.AddPI(fmt.Sprintf("in%d", i)))
	}
	var latches []*network.Latch
	for i := 0; i < p.FFs; i++ {
		init := network.V0
		if r.Intn(4) == 0 {
			init = network.V1
		}
		latches = append(latches, n.AddLatch(fmt.Sprintf("ff%d", i), nil, init))
	}
	// Signal pool for fanin selection, biased toward register outputs
	// early on (so state registers sit on the long paths) and recent
	// gates later (to build depth).
	pool := make([]*network.Node, 0, p.PIs+p.FFs+p.Gates)
	pool = append(pool, pis...)
	for _, l := range latches {
		pool = append(pool, l.Output)
	}
	pick := func() *network.Node {
		// Bias: 50% among the most recent quarter, else uniform.
		if len(pool) > 8 && r.Intn(2) == 0 {
			q := len(pool) / 4
			return pool[len(pool)-1-r.Intn(q)]
		}
		return pool[r.Intn(len(pool))]
	}
	gateFns := []*logic.Cover{
		logic.MustParseCover(2, "11"),       // and
		logic.MustParseCover(2, "1-", "-1"), // or
		logic.MustParseCover(2, "0-", "-0"), // nand
		logic.MustParseCover(2, "00"),       // nor
		logic.MustParseCover(2, "10", "01"), // xor
		logic.MustParseCover(2, "11", "00"), // xnor
		logic.MustParseCover(2, "10"),       // and-not
	}
	var gates []*network.Node
	for i := 0; i < p.Gates; i++ {
		var g *network.Node
		if i < p.FFs && p.FFs > 0 {
			// The first wave of gates consumes register outputs directly,
			// guaranteeing every register is read and multi-fanout stems
			// appear at register outputs.
			a := latches[i%p.FFs].Output
			b := pick()
			for b == a {
				b = pick()
			}
			g = n.AddLogic(fmt.Sprintf("g%d", i), []*network.Node{a, b},
				gateFns[r.Intn(len(gateFns))].Clone())
		} else {
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			g = n.AddLogic(fmt.Sprintf("g%d", i), []*network.Node{a, b},
				gateFns[r.Intn(len(gateFns))].Clone())
		}
		gates = append(gates, g)
		pool = append(pool, g)
	}
	// Register drivers: late gates, creating feedback (their cones reach
	// register outputs by construction bias).
	for i, l := range latches {
		if len(gates) == 0 {
			l.Driver = pis[i%len(pis)]
			continue
		}
		// Prefer gates from the last half.
		gi := len(gates)/2 + r.Intn((len(gates)+1)/2)
		if gi >= len(gates) {
			gi = len(gates) - 1
		}
		l.Driver = gates[gi]
	}
	// Primary outputs from distinct late gates where possible.
	used := make([]bool, n.NumIDs())
	for i := 0; i < p.POs; i++ {
		var d *network.Node
		for tries := 0; tries < 16; tries++ {
			if len(gates) == 0 {
				d = pis[r.Intn(len(pis))]
				break
			}
			d = gates[r.Intn(len(gates))]
			if !used[d.ID] {
				break
			}
		}
		used[d.ID] = true
		n.AddPO(fmt.Sprintf("out%d", i), d)
	}
	n.SweepLatches() // drop registers that ended up unread, keeping counts honest
	return n
}
