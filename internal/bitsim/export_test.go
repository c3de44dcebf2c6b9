package bitsim

// LaneBits returns the input bit stream of one lane of RandomEquivalent
// for seed, one bit per call, in the order the PI packing consumes it.
func LaneBits(seed int64, lane int) func() bool {
	g := newLaneRNG(seed, lane)
	return func() bool { return g.take(1) == 1 }
}

// SetLatch overrides latch i's dual-rail words directly (per-lane state
// injection for the property suite). one&zero must be 0.
func (s *Sim) SetLatch(b *Block, i int, one, zero uint64) {
	if one&zero != 0 {
		panic("bitsim: lane holds both 0 and 1")
	}
	g := s.latchOutCode[i]
	b.rail[g], b.rail[g+1] = one, zero
}

// Latch returns latch i's current dual-rail words.
func (s *Sim) Latch(b *Block, i int) (one, zero uint64) {
	g := s.latchOutCode[i]
	return b.rail[g], b.rail[g+1]
}
