package bitsim

import "testing"

// bitLane is the per-bit reference for one lane's input stream: it
// consumes the lane's splitmix64 words one bit at a time, LSB first.
type bitLane struct {
	s    uint64
	buf  uint64
	left int
}

func (g *bitLane) bit() bool {
	if g.left == 0 {
		g.buf = splitmix(&g.s)
		g.left = 64
	}
	b := g.buf&1 == 1
	g.buf >>= 1
	g.left--
	return b
}

// TestPackPIsMatchesPerBit compares the transposed PI words with per-bit
// packing over several cycles, so each lane's stream carries bits across
// word and cycle boundaries.
func TestPackPIsMatchesPerBit(t *testing.T) {
	const seed = 11
	for _, nPI := range []int{1, 7, 63, 64, 65, 130} {
		var rngs [LanesPerWord]laneRNG
		var ref [LanesPerWord]bitLane
		for l := range rngs {
			rngs[l] = newLaneRNG(seed, l)
			ref[l].s = uint64(seed) ^ (uint64(l)+1)*0x9E3779B97F4A7C15
		}
		got := make([]uint64, nPI)
		want := make([]uint64, nPI)
		var m [LanesPerWord]uint64
		for c := 0; c < 5; c++ {
			packPIs(&rngs, got, &m)
			for i := range want {
				want[i] = 0
			}
			for l := range ref {
				for i := 0; i < nPI; i++ {
					if ref[l].bit() {
						want[i] |= uint64(1) << uint(l)
					}
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("nPI %d cycle %d PI %d: got %016x, want %016x", nPI, c, i, got[i], want[i])
				}
			}
		}
	}
}
