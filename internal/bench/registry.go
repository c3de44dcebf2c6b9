package bench

import (
	"fmt"

	"repro/internal/blif"
	"repro/internal/kiss"
	"repro/internal/network"
)

// S27 is the reconstructed ISCAS'89 s27 netlist (4 PI, 1 PO, 3 DFF, 10
// gates). Initial states are taken as 0 (ISCAS'89 leaves them
// unspecified; SIS-era flows reset to zero).
const S27 = `
.model s27
.inputs G0 G1 G2 G3
.outputs G17
.latch G10 G5 0
.latch G11 G6 0
.latch G13 G7 0
.names G0 G14
0 1
.names G11 G17
0 1
.names G14 G6 G8
11 1
.names G12 G8 G15
00 0
.names G3 G8 G16
00 0
.names G16 G15 G9
11 0
.names G14 G11 G10
00 1
.names G5 G9 G11
00 1
.names G1 G7 G12
00 1
.names G2 G12 G13
00 1
.end
`

// Kind classifies how a benchmark circuit was obtained (the substitution
// taxonomy of DESIGN.md §2).
type Kind string

const (
	// KindFSMEmbedded is a reconstructed MCNC KISS2 machine.
	KindFSMEmbedded Kind = "fsm-embedded"
	// KindFSMGenerated is a profile-matched generated FSM.
	KindFSMGenerated Kind = "fsm-generated"
	// KindISCASReconstructed is a hand-reconstructed ISCAS'89 netlist.
	KindISCASReconstructed Kind = "iscas-reconstructed"
	// KindISCASSynthetic is a profile-matched synthetic netlist.
	KindISCASSynthetic Kind = "iscas-synthetic"
)

// Circuit is one benchmark entry.
type Circuit struct {
	Name  string
	Kind  Kind
	Build func() (*network.Network, error)
}

func fromKiss(src, name string) func() (*network.Network, error) {
	return func() (*network.Network, error) {
		f, err := kiss.ParseString(src, name)
		if err != nil {
			return nil, err
		}
		return f.Synthesize(kiss.Binary)
	}
}

func fromRandomFSM(name string, states, ins, outs int, seed int64) func() (*network.Network, error) {
	return func() (*network.Network, error) {
		return RandomFSM(name, states, ins, outs, seed).Synthesize(kiss.Binary)
	}
}

func fromProfile(p Profile) func() (*network.Network, error) {
	return func() (*network.Network, error) {
		n := Synthetic(p)
		if err := n.Check(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p.Name, err)
		}
		return n, nil
	}
}

// TableI returns the benchmark suite of the paper's Table I (MCNC FSMs and
// ISCAS'89 circuits), in table order.
func TableI() []Circuit {
	return []Circuit{
		{"ex2", KindFSMGenerated, fromRandomFSM("ex2", 19, 2, 2, 102)},
		{"ex6", KindFSMGenerated, fromRandomFSM("ex6", 8, 5, 8, 106)},
		{"bbtas", KindFSMEmbedded, fromKiss(BBTAS, "bbtas")},
		{"bbara", KindFSMEmbedded, fromKiss(BBARA, "bbara")},
		{"planet", KindFSMGenerated, fromRandomFSM("planet", 48, 7, 19, 148)},
		{"s27", KindISCASReconstructed, func() (*network.Network, error) { return blif.ParseString(S27) }},
		{"s208", KindISCASSynthetic, fromProfile(Profile{"s208", 10, 1, 8, 96, 208})},
		{"s298", KindISCASSynthetic, fromProfile(Profile{"s298", 3, 6, 14, 119, 298})},
		{"s344", KindISCASSynthetic, fromProfile(Profile{"s344", 9, 11, 15, 160, 344})},
		{"s382", KindISCASSynthetic, fromProfile(Profile{"s382", 3, 6, 21, 158, 382})},
		{"s386", KindISCASSynthetic, fromProfile(Profile{"s386", 7, 7, 6, 159, 386})},
		{"s400", KindISCASSynthetic, fromProfile(Profile{"s400", 3, 6, 21, 162, 400})},
		{"s420", KindISCASSynthetic, fromProfile(Profile{"s420", 18, 1, 16, 218, 420})},
		{"s510", KindISCASSynthetic, fromProfile(Profile{"s510", 19, 7, 6, 211, 510})},
		{"s526", KindISCASSynthetic, fromProfile(Profile{"s526", 3, 6, 21, 193, 526})},
		{"s641", KindISCASSynthetic, fromProfile(Profile{"s641", 35, 24, 19, 379, 641})},
		{"s820", KindISCASSynthetic, fromProfile(Profile{"s820", 18, 19, 5, 289, 820})},
		{"s1196", KindISCASSynthetic, fromProfile(Profile{"s1196", 14, 14, 18, 529, 1196})},
		{"s1238", KindISCASSynthetic, fromProfile(Profile{"s1238", 14, 14, 18, 508, 1238})},
		{"s5378", KindISCASSynthetic, fromProfile(Profile{"s5378", 35, 49, 179, 2779, 5378})},
	}
}

// Large returns the s38417-class suite: profile-matched synthetics for
// the big ISCAS'89 circuits the paper could not run ("the method is
// currently limited by the size of circuits the implicit techniques can
// handle"). They are deliberately NOT part of TableI(): at tens of
// thousands of gates the SOP substrate's two-level covers blow past any
// reasonable pass budget, which is exactly the wall the AIG substrate
// exists to break. The benchmark's large-script-aig workload runs the AIG
// script flow over three of these rows.
func Large() []Circuit {
	return []Circuit{
		{"s9234", KindISCASSynthetic, fromProfile(Profile{"s9234", 19, 22, 228, 5597, 9234})},
		{"s13207", KindISCASSynthetic, fromProfile(Profile{"s13207", 31, 121, 669, 7951, 13207})},
		{"s15850", KindISCASSynthetic, fromProfile(Profile{"s15850", 14, 87, 597, 9772, 15850})},
		{"s35932", KindISCASSynthetic, fromProfile(Profile{"s35932", 35, 320, 1728, 16065, 35932})},
		{"s38417", KindISCASSynthetic, fromProfile(Profile{"s38417", 28, 106, 1636, 22179, 38417})},
		{"s38584", KindISCASSynthetic, fromProfile(Profile{"s38584", 12, 278, 1452, 19253, 38584})},
	}
}

// SmallFSMs returns the embedded machines (used by examples and tests).
func SmallFSMs() map[string]string {
	return map[string]string{
		"bbtas":    BBTAS,
		"bbara":    BBARA,
		"dk27":     DK27,
		"lion":     LION,
		"train4":   TRAIN4,
		"mc":       MC,
		"beecount": BEECOUNT,
		"shiftreg": SHIFTREG,
	}
}

// ByName finds a circuit in the Table I suite or the Large suite.
func ByName(name string) (Circuit, bool) {
	for _, c := range TableI() {
		if c.Name == name {
			return c, true
		}
	}
	for _, c := range Large() {
		if c.Name == name {
			return c, true
		}
	}
	return Circuit{}, false
}
