//go:build race

package sweep_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own, so allocation counts say nothing about the engine.
const raceEnabled = true
