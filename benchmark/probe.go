package main

// The machine-speed probe. On a shared machine, other tenants slow the
// same work by a factor that drifts from second to second and from
// minute to minute, often for longer than a whole run, so the median
// round of one run does not read the same twice. A fixed CPU-bound
// loop on both schedulable cores, timed before and after every round,
// measures that factor; each round's times are divided by the mean of
// the two readings and multiplied by probeRef. The probe is benchmark
// code only, so a change to the campaign code moves the scaled times
// fully, and it runs while no campaign is alive.

import (
	"sync"
	"time"
)

const (
	// probeIters is the probe's work per core: about 30 ms here.
	probeIters = 3_000_000
	// probeRef is the probe's time on the reference machine (two cores
	// of a shared x86-64 VM) when no other tenant is busy. It gives the
	// scaled times their unit, the seconds that machine would measure
	// then, and cancels in every comparison between two runs.
	probeRef = 0.027
)

// probeSink keeps the probe's result live.
var probeSink uint64

// probe runs the probe loop on gomaxprocs goroutines and returns its
// wall time in seconds.
func probe() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, gomaxprocs)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = probeLoop(probeIters, uint64(g+1))
		}()
	}
	wg.Wait()
	d := time.Since(t).Seconds()
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// probeLoop is an interpreter-like loop: a branchy state machine over
// a 64 KiB table.
func probeLoop(n int, seed uint64) uint64 {
	const mask = 1<<13 - 1
	var buf [mask + 1]uint64
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		switch x % 5 {
		case 0:
			buf[j] += x
		case 1:
			buf[j] ^= buf[(j+1)&mask]
		case 2:
			x += buf[j]
		default:
			buf[j] = x >> 3
		}
	}
	return x + buf[0]
}
