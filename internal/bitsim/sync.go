package bitsim

import (
	"context"
	"math/bits"

	"repro/internal/network"
	"repro/internal/parexec"
)

// syncHit is one block's best synchronizing-sequence candidate.
type syncHit struct {
	found       bool
	cycle, lane int      // absolute lane index, earliest (cycle, lane) in block
	seq         [][]bool // the winning lane's input vectors, len cycle+1
}

// SynchronizingSequence searches for an input sequence that drives n from
// the all-X power-up state into a fully defined state, exploring 64 random
// candidate sequences per word pass (opt.Streams candidates total, default
// 64; the scalar oracle's `tries` maps onto that knob). Definedness under
// conservative X-propagation is monotone in the lane, so the first cycle
// at which a lane's every latch is defined yields that lane's shortest
// certificate. Blocks merge in index order and lanes in bit order, making
// the result deterministic at any worker width. Returns (sequence, true)
// on success, (nil, false) if no candidate synchronizes within maxLen.
func SynchronizingSequence(n *network.Network, maxLen int, seed int64, opt Options) ([][]bool, bool) {
	s, err := Compile(n)
	if err != nil {
		return nil, false
	}
	if maxLen <= 0 {
		return nil, false
	}
	streams := opt.streams()
	nBlocks := (streams + LanesPerWord - 1) / LanesPerWord

	sp := opt.Tracer.Begin("bitsim.sync_sequence")
	defer sp.End()
	sp.Add("bitsim_streams", int64(streams))
	sp.Add("bitsim_cycles", int64(maxLen))
	sp.Add("bitsim_vectors", int64(streams)*int64(maxLen))
	sp.Add("bitsim_words", int64(nBlocks)*int64(maxLen)*int64(s.NumSignals()))

	blockIdx := make([]int, nBlocks)
	for i := range blockIdx {
		blockIdx[i] = i
	}
	results, _ := parexec.Map(context.Background(), opt.Workers, blockIdx,
		func(_ context.Context, _ int, blk int) (syncHit, error) {
			return runSyncBlock(s, blk, streams, maxLen, seed), nil
		})

	// First block with a hit wins: block order mirrors the scalar oracle's
	// try order, and within a block runSyncBlock already picked the
	// earliest (cycle, lane).
	for _, r := range results {
		if r.found {
			return r.seq, true
		}
	}
	return nil, false
}

// runSyncBlock drives 64 candidate sequences from all-X and returns the
// earliest fully-defined lane, with its input history unpacked to bools.
func runSyncBlock(s *Sim, blk, streams, maxLen int, seed int64) syncHit {
	lo := blk * LanesPerWord
	active := streams - lo
	if active > LanesPerWord {
		active = LanesPerWord
	}
	activeMask := ^uint64(0)
	if active < LanesPerWord {
		activeMask = (uint64(1) << uint(active)) - 1
	}

	rngs := make([]laneRNG, active)
	for l := range rngs {
		// No scalar-parity lane here: every candidate is a fresh stream.
		rngs[l] = newLaneRNG(seed, lo+l, false)
	}
	nPI := s.NumPIs()
	b := s.NewBlock()
	s.SetAllX(b)

	// piHist[c] is the packed one-words of cycle c, kept to unpack the
	// winning lane's sequence.
	piHist := make([][]uint64, 0, maxLen)
	piZero := make([]uint64, nPI)
	for c := 0; c < maxLen; c++ {
		piOne := make([]uint64, nPI)
		for l := range rngs {
			for i := 0; i < nPI; i++ {
				if rngs[l].bit() {
					piOne[i] |= uint64(1) << uint(l)
				}
			}
		}
		for i := range piOne {
			piZero[i] = ^piOne[i]
		}
		piHist = append(piHist, piOne)
		s.Step(b, piOne, piZero)
		if m := s.DefinedLatches(b) & activeMask; m != 0 {
			lane := bits.TrailingZeros64(m)
			seq := make([][]bool, c+1)
			for t := 0; t <= c; t++ {
				vec := make([]bool, nPI)
				for i := 0; i < nPI; i++ {
					vec[i] = piHist[t][i]>>uint(lane)&1 == 1
				}
				seq[t] = vec
			}
			return syncHit{found: true, cycle: c, lane: lo + lane, seq: seq}
		}
	}
	return syncHit{}
}
