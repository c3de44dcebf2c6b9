//go:build !race

package reach_test

const raceEnabled = false
