//go:build !race

package sweep_test

const raceEnabled = false
