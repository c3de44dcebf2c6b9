package bitsim

// Signature hashing: the packed-word digests that turn simulation runs
// into candidate equivalence classes. Sequential sweeping (internal/sweep)
// partitions registers and AIG nodes by fingerprint before spending SAT
// effort on them; any future caller that needs "did these two signals ever
// see different values" gets the same mixing function instead of
// re-deriving an ad-hoc digest.

// MixSig folds one dual-rail word pair into a running 64-bit digest. The
// finalizer is splitmix64's, preceded by distinct odd-constant
// multiplications of the two planes so that (one, zero) and (zero, one)
// — a signal and its complement — land on different digests. Equal signal
// streams produce equal digests by construction; unequal streams collide
// with probability ~2⁻⁶⁴ per fold.
func MixSig(acc, one, zero uint64) uint64 {
	z := acc ^ one*0x9E3779B97F4A7C15 ^ (zero*0xD1B54A32D192ED03)<<1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
