package sweep

// Depth hooks: production runs Registers at K = 1 and deepens
// ProveEquivalent from K = 1, so a pair that proves at K = 1 never reaches
// a deeper unrolling. These run the engine at a chosen depth.
var (
	// RegistersAtDepth is Registers at induction depth k.
	RegistersAtDepth = registers
	// ProveEquivalentFrom is ProveEquivalent deepening from K = minK.
	ProveEquivalentFrom = proveEquivalent
)
