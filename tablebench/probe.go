package main

import (
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on shares its CPUs with other guests, and the
// speed of a core drifts with their load: over ten consecutive tablei-sop
// runs, flow, verify and set-up CPU time all rose and fell together by up to
// 1.46 times within two minutes. A probe is a fixed piece of work owned by
// the benchmark, so no change to the program can alter it; timing it next
// to every timed call measures the speed of the host at that moment, and the
// end-to-end times are scaled by it.

// probeSteps is the work of one probe: that many dependent loads through a
// 256 KiB cyclic permutation, each mixed into a hash.
const probeSteps = 1 << 20

// probeRefS is close to the CPU time of one probe on the 2-core x86-64 VM
// this benchmark was written on. Scaled times are in seconds at the host
// speed at which a probe takes this long; the constant fixes only their
// scale.
const probeRefS = 0.01

// probeTable is a single cycle through all its indices (Sattolo's
// algorithm over a fixed linear congruential sequence).
var probeTable = func() []uint32 {
	t := make([]uint32, 1<<16)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(t) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}()

// probesPerPass is about how many probes a pass runs, spread evenly over
// its timed calls, so that a workload of few cells gathers as many for its
// median as one of many.
const probesPerPass = 100

// probesPerCall is how many probes run before each timed call of w.
func (w workload) probesPerCall() int {
	calls := len(w.circuits) * len(w.flows) * (1 + max(w.verifyReps, 1))
	return (probesPerPass + calls - 1) / calls
}

// probeSink keeps the probe's result alive.
var probeSink uint64

// rusageThread is RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// threadCPUSeconds is the calling thread's user plus system CPU time.
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// probe runs one probe and returns the CPU time of the thread that ran it,
// which leaves out whatever the runtime's other threads did meanwhile.
func probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	var i uint32
	h := uint64(0x9E3779B97F4A7C15)
	for n := 0; n < probeSteps; n++ {
		i = probeTable[i]
		h = (h ^ uint64(i)) * 0x100000001B3
	}
	probeSink += h
	return threadCPUSeconds() - c0
}
