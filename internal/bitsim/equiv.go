package bitsim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/parexec"
)

// Options tunes the batched searches. The zero value is the default used
// throughout the pipeline: 64 streams (one word block), inline execution.
type Options struct {
	// Streams is the number of independent random input streams to drive
	// (default 64). Streams round up into ceil(Streams/64) word blocks;
	// counts not divisible by 64 leave the tail block partially masked.
	Streams int
	// Workers bounds the parexec fan-out over word blocks (<=0 selects
	// GOMAXPROCS). Results are merged in block order, so the outcome is
	// byte-identical at any width.
	Workers int
	// Tracer receives a "bitsim.*" span with vectors/words/streams
	// counters per call (nil: no tracing).
	Tracer *obs.Tracer
}

func (o Options) streams() int {
	if o.Streams <= 0 {
		return LanesPerWord
	}
	return o.Streams
}

// xPanicMsg matches the scalar StepBits panic exactly: guard's smoke check
// treats it as "inconclusive", and that classification must not change
// when the batched path replaces the scalar one.
const xPanicMsg = "sim: X reached a PO under two-valued simulation"

// laneRNG produces one lane's input bit stream. Global lane 0 replays the
// exact math/rand stream of the scalar path (one Intn(2) draw per PI per
// cycle from rand.NewSource(seed)), so first-divergence diagnostics remain
// reproducible against the scalar oracle; every other lane consumes the
// words of a splitmix64 generator derived from (seed, lane), LSB first.
type laneRNG struct {
	std  *rand.Rand
	s    uint64
	buf  uint64 // the unconsumed high bits of the last word, shifted down
	left int    // how many bits of buf are unconsumed
}

func newLaneRNG(seed int64, lane int, scalarParity bool) laneRNG {
	if scalarParity && lane == 0 {
		return laneRNG{std: rand.New(rand.NewSource(seed))}
	}
	s := uint64(seed) ^ (uint64(lane)+1)*0x9E3779B97F4A7C15
	return laneRNG{s: s}
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
	if g.std != nil {
		var v uint64
		for i := 0; i < w; i++ {
			if g.std.Intn(2) == 1 {
				v |= uint64(1) << uint(i)
			}
		}
		return v
	}
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

// blockRNGs returns the input streams of block blk's active lanes; block
// 0's lane 0 is the scalar-parity lane.
func blockRNGs(seed int64, blk, streams int) []laneRNG {
	lo := blk * LanesPerWord
	rngs := make([]laneRNG, min(streams-lo, LanesPerWord))
	for l := range rngs {
		rngs[l] = newLaneRNG(seed, lo+l, blk == 0)
	}
	return rngs
}

// packPIs draws one cycle of PI words for a block: each lane takes its
// bits for 64 PIs at a time from its own stream, and a bit-matrix
// transpose of those 64 lane words yields the 64 PI words. Lanes past
// len(rngs) read 0. m is scratch.
func packPIs(rngs []laneRNG, piOne []uint64, m *[LanesPerWord]uint64) {
	for base := 0; base < len(piOne); base += LanesPerWord {
		w := min(len(piOne)-base, LanesPerWord)
		*m = [LanesPerWord]uint64{}
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

// eqMismatch is one block's verdict.
type eqMismatch struct {
	// scalarErr is the exact scalar-parity failure observed on global lane
	// 0 (block 0 only).
	scalarErr error
	// found marks a conservative mismatch on some other lane: both POs
	// defined and different.
	found             bool
	cycle, lane, pair int
}

// RandomEquivalent drives both networks with the same random input vectors
// on opt.Streams independent streams for `cycles` cycles after a warm-up
// prefix of `delay` cycles each (the paper's delayed replacement: machines
// need only agree after k power-up cycles). Ports are paired by
// network.Pair.
//
// Stream 0 replays the exact vector sequence of the scalar oracle
// (sim.RandomEquivalentScalar) for the same seed, with the same failure
// behaviour: its first PO divergence is reported with the scalar error
// message, and an X reaching a PO on stream 0 panics like the scalar
// two-valued simulator (the guard smoke check maps that to
// "inconclusive"). The remaining streams add coverage: a divergence on
// stream k>0 (both sides defined, values different) is reported with the
// stream index unless stream 0 already failed. Returns nil if no mismatch
// was observed on any stream.
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
	streams := opt.streams()
	nBlocks := (streams + LanesPerWord - 1) / LanesPerWord
	total := delay + cycles

	sp := opt.Tracer.Begin("bitsim.random_equivalent")
	defer sp.End()
	sp.Add("bitsim_streams", int64(streams))
	sp.Add("bitsim_cycles", int64(total))
	sp.Add("bitsim_vectors", int64(streams)*int64(total))
	sp.Add("bitsim_words", int64(nBlocks)*int64(total)*int64(sa.NumSignals()+sb.NumSignals()))
	sp.Add("bitsim_pack_words", int64(nBlocks)*int64(total)*int64(len(a.PIs)))

	blockIdx := make([]int, nBlocks)
	for i := range blockIdx {
		blockIdx[i] = i
	}
	results, _ := parexec.Map(context.Background(), opt.Workers, blockIdx,
		func(_ context.Context, _ int, blk int) (eqMismatch, error) {
			return runEquivBlock(sa, sb, p, blk, streams, delay, total, seed), nil
		})

	// Merge in block order: the scalar-parity lane wins outright, then the
	// earliest (cycle, lane, pair) conservative mismatch.
	if len(results) > 0 && results[0].scalarErr != nil {
		return results[0].scalarErr
	}
	best := eqMismatch{}
	for _, r := range results {
		if !r.found {
			continue
		}
		if !best.found || r.cycle < best.cycle ||
			(r.cycle == best.cycle && (r.lane < best.lane || (r.lane == best.lane && r.pair < best.pair))) {
			best = r
		}
	}
	if best.found {
		return fmt.Errorf("sim: PO %q differs at cycle %d on stream %d (after %d-cycle prefix)",
			a.POs[best.pair].Name, best.cycle, best.lane, delay)
	}
	return nil
}

// runEquivBlock simulates 64 streams of one block through both machines.
// Block 0 additionally enforces the scalar semantics on lane 0: X at any
// PO panics (before the cycle's comparison, like StepBits), and lane 0's
// first post-prefix divergence returns immediately with the scalar error.
func runEquivBlock(sa, sb *Sim, p *network.Pairing, blk, streams, delay, total int, seed int64) eqMismatch {
	lo := blk * LanesPerWord
	rngs := blockRNGs(seed, blk, streams)
	othersMask := ^uint64(0) >> uint(LanesPerWord-len(rngs))
	scalarLane := blk == 0
	if scalarLane {
		othersMask &^= 1
	}

	nPI := sa.NumPIs()
	aOne, aZero := make([]uint64, nPI), make([]uint64, nPI)
	bOne, bZero := make([]uint64, nPI), make([]uint64, nPI)
	var m [LanesPerWord]uint64
	ba := sa.NewBlock()
	bb := sb.NewBlock()
	sa.Reset(ba)
	sb.Reset(bb)

	res := eqMismatch{}
	for c := 0; c < total; c++ {
		packPIs(rngs, aOne, &m)
		for i := range aOne {
			aZero[i] = ^aOne[i]
		}
		for i, j := range p.PI {
			bOne[j], bZero[j] = aOne[i], aZero[i]
		}
		sa.Step(ba, aOne, aZero)
		sb.Step(bb, bOne, bZero)

		if scalarLane {
			// Scalar StepBits order: network a's POs first, then b's.
			for i := 0; i < sa.NumPOs(); i++ {
				one, zero := sa.PO(ba, i)
				if (one|zero)&1 == 0 {
					panic(xPanicMsg)
				}
			}
			for i := 0; i < sb.NumPOs(); i++ {
				one, zero := sb.PO(bb, i)
				if (one|zero)&1 == 0 {
					panic(xPanicMsg)
				}
			}
		}
		if c < delay {
			continue
		}
		for ia, ib := range p.PO {
			oa1, oa0 := sa.PO(ba, ia)
			ob1, ob0 := sb.PO(bb, ib)
			if scalarLane && (oa1^ob1)&1 != 0 {
				return eqMismatch{scalarErr: fmt.Errorf(
					"sim: PO %q differs at cycle %d (after %d-cycle prefix)",
					sa.net.POs[ia].Name, c, delay)}
			}
			if !res.found {
				// Conservative on the extra streams: a mismatch needs both
				// sides defined with opposite values; X compares equal.
				if mm := ((oa1 & ob0) | (oa0 & ob1)) & othersMask; mm != 0 {
					res = eqMismatch{found: true, cycle: c, lane: lo + bits.TrailingZeros64(mm), pair: ia}
					if !scalarLane {
						// Nothing else in this block can beat its own
						// earliest mismatch; block 0 must keep simulating
						// for the scalar lane.
						return res
					}
				}
			}
		}
	}
	return res
}
