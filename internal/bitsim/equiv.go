package bitsim

import (
	"fmt"
	"math/bits"

	"repro/internal/network"
	"repro/internal/obs"
)

// Options configures RandomEquivalent.
type Options struct {
	// Tracer receives a "bitsim.*" span with vectors/words counters per
	// call (nil: no tracing).
	Tracer *obs.Tracer
}

// laneRNG produces one lane's input bit stream: the words of a splitmix64
// generator derived from (seed, lane), consumed LSB first.
type laneRNG struct {
	s    uint64
	buf  uint64 // the unconsumed high bits of the last word, shifted down
	left int    // how many bits of buf are unconsumed
}

func newLaneRNG(seed int64, lane int) laneRNG {
	return laneRNG{s: uint64(seed) ^ (uint64(lane)+1)*0x9E3779B97F4A7C15}
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// take returns the lane's next w bits (1 <= w <= 64), the first drawn in
// bit 0.
func (g *laneRNG) take(w int) uint64 {
	v := g.buf
	if g.left < w {
		next := splitmix(&g.s)
		v |= next << uint(g.left)
		g.buf = next >> uint(w-g.left)
		g.left += LanesPerWord - w
	} else {
		g.buf >>= uint(w)
		g.left -= w
	}
	return v & (^uint64(0) >> uint(LanesPerWord-w))
}

// packPIs draws one cycle of PI words: each lane takes its bits for 64 PIs
// at a time from its own stream, and a bit-matrix transpose of those 64
// lane words yields the 64 PI words. m is scratch.
func packPIs(rngs *[LanesPerWord]laneRNG, piOne []uint64, m *[LanesPerWord]uint64) {
	for base := 0; base < len(piOne); base += LanesPerWord {
		w := min(len(piOne)-base, LanesPerWord)
		for l := range rngs {
			m[l] = rngs[l].take(w)
		}
		transpose(m)
		copy(piOne[base:base+w], m[:w])
	}
}

// transpose transposes the 64×64 bit matrix m in place (bit c of m[r]
// moves to bit r of m[c]) by swapping off-diagonal blocks of halving size.
func transpose(m *[LanesPerWord]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, mask = j>>1, mask^(mask<<uint(j>>1)) {
		for k := 0; k < LanesPerWord; k = (k + j + 1) &^ j {
			t := (m[k]>>uint(j) ^ m[k+j]) & mask
			m[k] ^= t << uint(j)
			m[k+j] ^= t
		}
	}
}

// RandomEquivalent drives both networks with the same random input vectors
// on 64 independent streams, one per lane, for `cycles` cycles after a
// warm-up prefix of `delay` cycles (the paper's delayed replacement:
// machines need only agree after k power-up cycles). Ports are paired by
// network.Pair. Simulation is three-valued from the declared initial
// states, and the compare is conservative: a mismatch needs both POs
// defined with different values, so an unknown initial state never
// produces a false alarm. The first mismatch, in (cycle, PO, stream)
// order, is reported; nil means none was observed.
func RandomEquivalent(a, b *network.Network, delay, cycles int, seed int64, opt Options) error {
	p, err := network.Pair(a, b)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	sa, err := Compile(a)
	if err != nil {
		return err
	}
	sb, err := Compile(b)
	if err != nil {
		return err
	}
	total := delay + cycles

	sp := opt.Tracer.Begin("bitsim.random_equivalent")
	defer sp.End()
	sp.Add("bitsim_cycles", int64(total))
	sp.Add("bitsim_vectors", LanesPerWord*int64(total))
	sp.Add("bitsim_words", int64(total)*int64(sa.NumSignals()+sb.NumSignals()))
	sp.Add("bitsim_pack_words", int64(total)*int64(len(a.PIs)))

	var rngs [LanesPerWord]laneRNG
	for l := range rngs {
		rngs[l] = newLaneRNG(seed, l)
	}
	nPI := sa.NumPIs()
	aOne, aZero := make([]uint64, nPI), make([]uint64, nPI)
	bOne, bZero := make([]uint64, nPI), make([]uint64, nPI)
	var m [LanesPerWord]uint64
	ba := sa.NewBlock()
	bb := sb.NewBlock()
	sa.Reset(ba)
	sb.Reset(bb)
	for c := 0; c < total; c++ {
		packPIs(&rngs, aOne, &m)
		for i := range aOne {
			aZero[i] = ^aOne[i]
		}
		for i, j := range p.PI {
			bOne[j], bZero[j] = aOne[i], aZero[i]
		}
		sa.Step(ba, aOne, aZero)
		sb.Step(bb, bOne, bZero)
		if c < delay {
			continue
		}
		for ia, ib := range p.PO {
			oa1, oa0 := sa.PO(ba, ia)
			ob1, ob0 := sb.PO(bb, ib)
			if mm := (oa1 & ob0) | (oa0 & ob1); mm != 0 {
				return fmt.Errorf("sim: PO %q differs at cycle %d on stream %d (after %d-cycle prefix)",
					a.POs[ia].Name, c, bits.TrailingZeros64(mm), delay)
			}
		}
	}
	return nil
}
