package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kiss"
)

// Embedded KISS2 machines. The small MCNC FSM benchmarks are reconstructed
// to match the documented input/output/state counts of the originals
// (bbtas: 2/2/6, bbara: 4/2/10, dk27: 1/2/7, lion: 2/1/4, train4: 2/1/4,
// mc: 3/5/4, beecount: 3/4/7, shiftreg: 1/1/8). Larger FSMs whose state
// tables are not public-domain-memorable (ex2, ex6, planet) are generated
// by RandomFSM with matching profiles. See DESIGN.md §2.

// BBTAS is a 6-state bus arbiter-ish controller (2 in / 2 out).
const BBTAS = `
.i 2
.o 2
.s 6
.r st0
00 st0 st0 00
01 st0 st1 00
10 st0 st2 00
11 st0 st5 00
00 st1 st0 01
-1 st1 st3 01
10 st1 st1 01
00 st2 st0 10
01 st2 st2 10
1- st2 st4 10
0- st3 st1 01
1- st3 st5 01
-0 st4 st2 10
-1 st4 st5 10
00 st5 st0 11
01 st5 st3 11
10 st5 st4 11
11 st5 st5 11
.e
`

// BBARA is a 10-state arbiter (4 in / 2 out).
const BBARA = `
.i 4
.o 2
.s 10
.r st0
--00 st0 st0 00
--01 st0 st1 00
--10 st0 st4 00
--11 st0 st0 00
--01 st1 st2 00
--10 st1 st4 00
--00 st1 st1 00
--11 st1 st0 00
--01 st2 st3 00
--10 st2 st4 00
--00 st2 st2 00
--11 st2 st0 00
0-01 st3 st3 10
--10 st3 st4 10
--00 st3 st3 10
1-01 st3 st7 10
--11 st3 st0 10
--10 st4 st5 00
--01 st4 st1 00
--00 st4 st4 00
--11 st4 st0 00
--10 st5 st6 00
--01 st5 st1 00
--00 st5 st5 00
--11 st5 st0 00
-010 st6 st6 01
--01 st6 st1 01
-110 st6 st8 01
--00 st6 st6 01
--11 st6 st0 01
--01 st7 st2 10
--10 st7 st4 10
--00 st7 st7 10
--11 st7 st0 10
--10 st8 st5 01
--01 st8 st1 01
--00 st8 st9 01
--11 st8 st0 01
--00 st9 st9 01
--01 st9 st1 01
--10 st9 st5 01
--11 st9 st0 01
.e
`

// DK27 is a 7-state counter-like machine (1 in / 2 out).
const DK27 = `
.i 1
.o 2
.s 7
.r s1
0 s1 s2 00
1 s1 s4 00
0 s2 s3 00
1 s2 s5 01
0 s3 s1 10
1 s3 s6 10
0 s4 s5 01
1 s4 s1 01
0 s5 s6 10
1 s5 s7 11
0 s6 s7 11
1 s6 s2 00
0 s7 s1 00
1 s7 s3 10
.e
`

// LION is the classic 4-state lion machine (2 in / 1 out).
const LION = `
.i 2
.o 1
.s 4
.r st0
00 st0 st0 0
01 st0 st0 0
10 st0 st1 0
00 st1 st1 1
10 st1 st1 1
11 st1 st2 1
10 st2 st2 1
11 st2 st2 1
01 st2 st3 1
11 st3 st3 1
01 st3 st3 1
00 st3 st3 1
.e
`

// TRAIN4 is the 4-state train controller (2 in / 1 out).
const TRAIN4 = `
.i 2
.o 1
.s 4
.r st0
00 st0 st0 0
10 st0 st1 1
01 st0 st2 1
11 st0 st0 0
10 st1 st1 1
00 st1 st3 1
01 st2 st2 1
00 st2 st3 1
00 st3 st3 1
10 st3 st3 1
01 st3 st3 1
11 st3 st0 0
.e
`

// MC is a 4-state sequencer with wide outputs (3 in / 5 out).
const MC = `
.i 3
.o 5
.s 4
.r s0
0-- s0 s0 00000
1-- s0 s1 00010
-0- s1 s1 01000
-1- s1 s2 01010
--0 s2 s2 10000
--1 s2 s3 10010
0-- s3 s3 00101
1-- s3 s0 00111
.e
`

// BEECOUNT is a 7-state counter (3 in / 4 out).
const BEECOUNT = `
.i 3
.o 4
.s 7
.r st0
0-- st0 st0 0000
1-- st0 st1 0001
00- st1 st1 0001
01- st1 st2 0010
1-- st1 st0 0000
0-0 st2 st2 0010
0-1 st2 st3 0011
1-- st2 st1 0001
-00 st3 st3 0011
-01 st3 st4 0100
-1- st3 st2 0010
0-- st4 st5 0101
1-- st4 st3 0011
-0- st5 st6 0110
-1- st5 st4 0100
--0 st6 st0 0111
--1 st6 st5 0101
.e
`

// SHIFTREG is the 8-state serial shift register (1 in / 1 out).
const SHIFTREG = `
.i 1
.o 1
.s 8
.r st0
0 st0 st0 0
1 st0 st4 0
0 st1 st0 1
1 st1 st4 1
0 st2 st1 0
1 st2 st5 0
0 st3 st1 1
1 st3 st5 1
0 st4 st2 0
1 st4 st6 0
0 st5 st2 1
1 st5 st6 1
0 st6 st3 0
1 st6 st7 0
0 st7 st3 1
1 st7 st7 1
.e
`

// RandomFSM deterministically generates a strongly connected Mealy machine
// with the given profile — used for MCNC machines whose exact tables are
// unavailable (ex2, ex6, planet).
func RandomFSM(name string, states, ins, outs int, seed int64) *kiss.FSM {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n.s %d\n.r s0\n", ins, outs, states)
	randOut := func() string {
		o := make([]byte, outs)
		for i := range o {
			o[i] = '0' + byte(r.Intn(2))
		}
		return string(o)
	}
	// Per state: split the input space by the value of one chosen input
	// variable, guaranteeing full and deterministic coverage.
	for s := 0; s < states; s++ {
		v := r.Intn(ins)
		for _, val := range []byte{'0', '1'} {
			cube := strings.Repeat("-", v) + string(val) + strings.Repeat("-", ins-v-1)
			// Ring edge keeps the machine strongly connected; the other
			// branch jumps randomly.
			var to int
			if val == '0' {
				to = (s + 1) % states
			} else {
				to = r.Intn(states)
			}
			fmt.Fprintf(&b, "%s s%d s%d %s\n", cube, s, to, randOut())
		}
	}
	b.WriteString(".e\n")
	f, err := kiss.ParseString(b.String(), name)
	if err != nil {
		panic(fmt.Sprintf("bench: generated FSM invalid: %v", err))
	}
	return f
}
