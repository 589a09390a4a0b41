package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The parallel execution layer. The paper's evaluation drove CompDiff
// on a 64-core server (§4); here the same fan-out is a worker pool
// over the k per-binary executions of one input. Determinism is
// preserved by construction: workers claim implementation indices
// from an atomic counter but write results positionally, so the
// outcome — results, hashes, divergence verdict, triage signature —
// is byte-identical to the sequential path for any clock-independent
// program, regardless of scheduling.

// effectiveParallelism clamps Options.Parallelism to the number of
// tasks and to GOMAXPROCS. VM runs are pure CPU — they never block on
// I/O — so workers beyond the schedulable cores cannot overlap
// anything; they only add goroutine spawn and scheduler churn to
// every Run. On a single-core box this clamp is what keeps
// Parallelism=4 from regressing ~60% below the sequential path
// (BENCH_2026-08-06.json: SuiteRunParallel 10723 ns/op vs
// SuiteRunSequential 6698). Outcomes are positionally identical at
// any worker count, so the clamp is invisible except in throughput.
func (s *Suite) effectiveParallelism(n int) int {
	p := s.opts.Parallelism
	if p > n {
		p = n
	}
	if max := runtime.GOMAXPROCS(0); p > max {
		p = max
	}
	return p
}

// forEach runs fn(i) for every i in [0, n), fanning across
// Options.Parallelism workers. Parallelism <= 1 (or a single task, or
// a single schedulable core) stays on the calling goroutine,
// preserving the historical sequential execution exactly. With p
// workers the calling goroutine runs one worker's share itself, so
// only p-1 goroutines are spawned per Run.
func (s *Suite) forEach(n int, fn func(int)) {
	p := s.effectiveParallelism(n)
	if p <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1))
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// forEachTimed is forEach with latency observation. Reading the clock
// around every task would cost more than the telemetry it feeds (a
// warm VM run is single-digit microseconds; a clock read tens of
// nanoseconds), so each worker times its whole chain of tasks with two
// reads and hands the chain to flush, which apportions the elapsed
// time across the tasks it ran. Chains are exact in aggregate — every
// nanosecond a worker spent executing is attributed to exactly one of
// its tasks. flush runs outside the timed window, once per worker.
func (s *Suite) forEachTimed(n int, fn func(int), flush func(idxs []int, elapsed time.Duration)) {
	p := s.effectiveParallelism(n)
	if p <= 1 || n <= 1 {
		var buf [16]int
		idxs := buf[:0]
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
			idxs = append(idxs, i)
		}
		flush(idxs, time.Since(start))
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	worker := func() {
		var buf [16]int
		idxs := buf[:0]
		start := time.Now()
		for {
			i := int(next.Add(1))
			if i >= n {
				break
			}
			fn(i)
			idxs = append(idxs, i)
		}
		if len(idxs) > 0 {
			flush(idxs, time.Since(start))
		}
	}
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
}

// Warm tops the suite's idle machine sets up to n, so that the first
// n concurrent runs do not pay machine construction on the hot path.
func (s *Suite) Warm(n int) {
	s.mu.Lock()
	for len(s.idle) < n {
		s.idle = append(s.idle, s.newSet())
	}
	s.mu.Unlock()
}
