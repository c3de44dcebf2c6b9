package bitsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitsim"
)

// TestMixSigCollisionRate hammers the digest mixer with random word pairs
// and demands zero collisions: at 2⁻⁶⁴ per pair, even one collision in
// 2·10⁴ samples (≈2·10⁸ pairs) indicates a broken finalizer. It also pins
// the properties sweeping relies on: determinism, and a signal being
// distinguished from its own complement.
func TestMixSigCollisionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 20000
	seen := make(map[uint64][2]uint64, n)
	for i := 0; i < n; i++ {
		one, zero := rng.Uint64(), rng.Uint64()
		d := bitsim.MixSig(0, one, zero)
		if prev, dup := seen[d]; dup && (prev[0] != one || prev[1] != zero) {
			t.Fatalf("digest collision: (%x,%x) and (%x,%x) both hash to %x",
				prev[0], prev[1], one, zero, d)
		}
		seen[d] = [2]uint64{one, zero}
		if bitsim.MixSig(0, one, zero) != d {
			t.Fatal("MixSig is not deterministic")
		}
		if bitsim.MixSig(0, zero, one) == d && one != zero {
			t.Fatalf("complement (%x,%x) not distinguished", one, zero)
		}
		if bitsim.MixSig(1, one, zero) == d {
			t.Fatalf("accumulator ignored for (%x,%x)", one, zero)
		}
	}
}
