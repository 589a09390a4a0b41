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

// fanOut runs fn(i) for every i in [0, n), fanning across
// Options.Parallelism workers. Parallelism <= 1 (or a single task, or
// a single schedulable core) stays on the calling goroutine,
// preserving the historical sequential execution exactly. With p
// workers the calling goroutine runs one worker's share itself, so
// only p-1 goroutines are spawned per Run.
//
// A non-nil flush observes latency. Reading the clock around every
// task would cost more than the telemetry it feeds (a warm VM run is
// single-digit microseconds; a clock read tens of nanoseconds), so
// each worker times its whole chain of tasks with two reads and hands
// the chain to flush, which apportions the elapsed time across the
// tasks it ran and may overwrite idxs. Chains are exact in aggregate —
// every nanosecond a worker spent executing is attributed to exactly
// one of its tasks. flush runs outside the timed window, once per
// worker that ran a task. With flush nil, no clock is read and no
// index collected.
func (s *Suite) fanOut(n int, fn func(int), flush func(idxs []int, elapsed time.Duration)) {
	p := s.effectiveParallelism(n)
	if p <= 1 || n <= 1 {
		chain(n, fn, flush, nil)
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain(n, fn, flush, &next)
		}()
	}
	chain(n, fn, flush, &next)
	wg.Wait()
}

// chain is one worker's share of fanOut: the tasks it claims from
// next, or every task in order when next is nil.
func chain(n int, fn func(int), flush func([]int, time.Duration), next *atomic.Int64) {
	claim := func(prev int) int {
		if next == nil {
			return prev + 1
		}
		return int(next.Add(1))
	}
	var idxs []int
	var start time.Time
	if flush != nil {
		idxs = make([]int, 0, n)
		start = time.Now()
	}
	for i := claim(-1); i < n; i = claim(i) {
		fn(i)
		if flush != nil {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) > 0 {
		flush(idxs, time.Since(start))
	}
}
