//go:build race

package logic

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts say nothing about the kernel.
const raceEnabled = true
