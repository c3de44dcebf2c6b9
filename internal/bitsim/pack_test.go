package bitsim

import (
	"math/rand"
	"testing"
)

// bitLane is the per-bit reference for one lane's input stream: lane 0 of
// block 0 draws Intn(2) per PI from math/rand, every other lane consumes
// its splitmix64 words one bit at a time, LSB first.
type bitLane struct {
	std  *rand.Rand
	s    uint64
	buf  uint64
	left int
}

func (g *bitLane) bit() bool {
	if g.std != nil {
		return g.std.Intn(2) == 1
	}
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
	for _, streams := range []int{64, 130} {
		for _, nPI := range []int{1, 7, 63, 64, 65, 130} {
			for blk := 0; blk*LanesPerWord < streams; blk++ {
				rngs := blockRNGs(seed, blk, streams)
				ref := make([]bitLane, len(rngs))
				for l := range ref {
					lane := blk*LanesPerWord + l
					if lane == 0 {
						ref[l].std = rand.New(rand.NewSource(seed))
					} else {
						ref[l].s = uint64(seed) ^ (uint64(lane)+1)*0x9E3779B97F4A7C15
					}
				}
				got := make([]uint64, nPI)
				want := make([]uint64, nPI)
				var m [LanesPerWord]uint64
				for c := 0; c < 5; c++ {
					packPIs(rngs, got, &m)
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
							t.Fatalf("streams %d nPI %d block %d cycle %d PI %d: got %016x, want %016x",
								streams, nPI, blk, c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
