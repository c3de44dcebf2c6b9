//go:build race

package reach_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own, so allocation counts say nothing about the analysis.
const raceEnabled = true
