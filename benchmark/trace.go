package main

// The span recorder behind the traced run. Every span boundary the
// benchmark-side drivers cross is aggregated exactly (calls, busy
// time, self time, failures, per-name item counters) on the thread that
// ran it; full span records are kept only for sampled units, up to a
// cap, and written to trace.json when the run ends.
//
// A thread is a logical thread of the campaign: the main goroutine or
// one shard. A Thread is used by one goroutine at a time; a shard's
// per-epoch goroutines reuse their shard's Thread in sequence, ordered
// by the epoch's WaitGroup.
//
// Self time is a span's duration minus the part of its interval its
// children cover. Children on the same thread nest and never overlap,
// so their durations add. Children on other threads (the shards of a
// fan-out span) run concurrently with each other, so the parent
// subtracts the union of their intervals, not their sum. The covered
// part is clipped to the parent's duration, so self time is never
// negative.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanDef declares one span name. A frame is a benchmark-side span
// that only gives a thread its extent (a round, a shard epoch); time a
// thread spends in frame self time is time no layer span covers.
// Always marks low-frequency spans whose records are kept whether or
// not their unit is sampled.
type SpanDef struct {
	Name   string
	Frame  bool
	Always bool
}

// Agg is the exact aggregate of every call of one span name.
type Agg struct {
	Calls int64
	Fails int64
	Busy  time.Duration
	Self  time.Duration
	// Items and Hits are per-name counters the drivers add: inputs
	// per core.run call, fresh findings per store add, cache hits.
	Items int64
	Hits  int64
}

func (a *Agg) merge(b Agg) {
	a.Calls += b.Calls
	a.Fails += b.Fails
	a.Busy += b.Busy
	a.Self += b.Self
	a.Items += b.Items
	a.Hits += b.Hits
}

// Span is one retained span record. Times are nanoseconds since the
// tracer started; Parent is 0 when the parent span was not retained.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Thread int    `json:"thread"`
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// Tracer owns the threads, the name table and the retained spans.
type Tracer struct {
	defs        []SpanDef
	start       time.Time
	sampleEvery int64
	keepCap     int

	nextID atomic.Int64

	mu      sync.Mutex
	threads map[int]*Thread
	kept    []Span
	dropped int64
}

// NewTracer records spans named by defs. Units whose id is a multiple
// of sampleEvery keep their full spans, up to keepCap records in all.
func NewTracer(defs []SpanDef, sampleEvery int64, keepCap int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{defs: defs, start: time.Now(), sampleEvery: sampleEvery,
		keepCap: keepCap, threads: map[int]*Thread{}, kept: make([]Span, 0, keepCap)}
}

// Thread returns logical thread id, creating it on first use.
func (tr *Tracer) Thread(id int) *Thread {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	th := tr.threads[id]
	if th == nil {
		th = &Thread{tr: tr, id: id, aggs: make([]Agg, len(tr.defs))}
		tr.threads[id] = th
	}
	return th
}

func (tr *Tracer) now() int64 { return int64(time.Since(tr.start)) }

func (tr *Tracer) keep(s Span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.kept) >= tr.keepCap {
		tr.dropped++
		return
	}
	tr.kept = append(tr.kept, s)
}

// Fanout is a span whose children run on other threads.
type Fanout struct {
	id int64
	mu sync.Mutex
	iv [][2]int64
}

func (f *Fanout) add(start, end int64) {
	f.mu.Lock()
	f.iv = append(f.iv, [2]int64{start, end})
	f.mu.Unlock()
}

// union is the length of the union of the recorded intervals from lo
// on.
func (f *Fanout) union(lo int64) int64 {
	f.mu.Lock()
	iv := append([][2]int64(nil), f.iv...)
	f.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		s, e := max(v[0], lo), v[1]
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

type frame struct {
	name   int
	start  int64
	child  int64
	id     int64
	fan    *Fanout // set on fan-out spans: children on other threads
	parent *Fanout // set on thread roots started under a fan-out span
}

// Thread records the spans of one logical thread.
type Thread struct {
	tr      *Tracer
	id      int
	aggs    []Agg
	stack   []frame
	unit    int64
	sampled bool
}

// SetUnit marks the start of unit u (an input, a program, a finding):
// spans that follow belong to it, and are kept when it is sampled.
func (th *Thread) SetUnit(u int64) {
	th.unit = u
	th.sampled = u%th.tr.sampleEvery == 0
}

// Begin opens span name as a child of the thread's innermost open span.
func (th *Thread) Begin(name int) {
	th.push(name, nil, nil)
}

// BeginFanout opens span name and returns the handle its children on
// other threads start under.
func (th *Thread) BeginFanout(name int) *Fanout {
	f := &Fanout{}
	th.push(name, f, nil)
	f.id = th.stack[len(th.stack)-1].id
	return f
}

// BeginUnder opens span name as this thread's root, a child of the
// fan-out span parent on another thread.
func (th *Thread) BeginUnder(name int, parent *Fanout) {
	th.push(name, nil, parent)
}

func (th *Thread) push(name int, fan, parent *Fanout) {
	var id int64
	if th.sampled || th.tr.defs[name].Always {
		id = th.tr.nextID.Add(1)
	}
	th.stack = append(th.stack, frame{name: name, start: th.tr.now(), id: id, fan: fan, parent: parent})
}

// End closes the innermost open span and returns its duration.
func (th *Thread) End() time.Duration { return th.end(false) }

// EndFail closes the innermost open span, counts it as failed, and
// returns its duration.
func (th *Thread) EndFail() time.Duration { return th.end(true) }

// unwind closes every open span as failed, after a panic abandoned
// them.
func (th *Thread) unwind() {
	for len(th.stack) > 0 {
		th.end(true)
	}
}

func (th *Thread) end(failed bool) time.Duration {
	n := len(th.stack) - 1
	f := th.stack[n]
	th.stack = th.stack[:n]
	covered := f.child
	if f.fan != nil {
		// Every child has ended before its fan-out parent does, so the
		// union needs no upper clip and is taken inside the span.
		covered += f.fan.union(f.start)
	}
	end := th.tr.now()
	dur := end - f.start
	self := dur - min(covered, dur)
	a := &th.aggs[f.name]
	a.Calls++
	a.Busy += time.Duration(dur)
	a.Self += time.Duration(self)
	if failed {
		a.Fails++
	}
	var parentID int64
	if n > 0 {
		th.stack[n-1].child += dur
		parentID = th.stack[n-1].id
	} else if f.parent != nil {
		f.parent.add(f.start, end)
		parentID = f.parent.id
	}
	if f.id != 0 {
		th.tr.keep(Span{ID: f.id, Parent: parentID, Name: th.tr.defs[f.name].Name, Thread: th.id,
			Unit: th.unit, Start: f.start, End: end, Self: self})
	}
	return time.Duration(dur)
}

// Add adds per-name counters outside any span.
func (th *Thread) Add(name int, items, hits int64) {
	th.aggs[name].Items += items
	th.aggs[name].Hits += hits
}

// AddTime records d as one call of name, for intervals measured
// rather than spanned: the time a shard idles at a barrier, the time a
// cache lookup spent missing. It adds no self time, so it does not
// count towards any thread's wall time or coverage.
func (th *Thread) AddTime(name int, d time.Duration) {
	a := &th.aggs[name]
	a.Calls++
	a.Busy += d
}

// Aggs returns the per-name aggregates summed over every thread. Call
// it only after every thread's goroutine has finished.
func (tr *Tracer) Aggs() map[string]Agg {
	out := map[string]Agg{}
	for _, th := range tr.sortedThreads() {
		for i, a := range th.aggs {
			if a.Calls == 0 && a.Items == 0 && a.Hits == 0 {
				continue
			}
			cur := out[tr.defs[i].Name]
			cur.merge(a)
			out[tr.defs[i].Name] = cur
		}
	}
	return out
}

// ThreadStat is one thread's wall time and layer coverage.
type ThreadStat struct {
	ID       int     `json:"id"`
	WallNs   int64   `json:"wall_ns"`
	Coverage float64 `json:"coverage"`
}

// ThreadStats reports, per thread, its wall time (the self time of
// every span on it, which excludes time it waited on other threads)
// and the fraction of that time covered by the self time of layer
// spans — the part of the thread's work the trace attributes.
func (tr *Tracer) ThreadStats() []ThreadStat {
	var out []ThreadStat
	for _, th := range tr.sortedThreads() {
		var wall, layer time.Duration
		for i, a := range th.aggs {
			wall += a.Self
			if !tr.defs[i].Frame {
				layer += a.Self
			}
		}
		if wall <= 0 {
			continue
		}
		out = append(out, ThreadStat{ID: th.id, WallNs: int64(wall), Coverage: float64(layer) / float64(wall)})
	}
	return out
}

func (tr *Tracer) sortedThreads() []*Thread {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ths := make([]*Thread, 0, len(tr.threads))
	for _, th := range tr.threads {
		ths = append(ths, th)
	}
	sort.Slice(ths, func(i, j int) bool { return ths[i].id < ths[j].id })
	return ths
}

// traceFile is the trace.json layout.
type traceFile struct {
	SampleEvery int64                  `json:"sample_every"`
	Dropped     int64                  `json:"dropped_spans"`
	Threads     []ThreadStat           `json:"threads"`
	Aggregates  map[string]aggregateJS `json:"aggregates"`
	Spans       []Span                 `json:"spans"`
}

type aggregateJS struct {
	Calls int64   `json:"calls"`
	Fails int64   `json:"fails"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
	Items int64   `json:"items,omitempty"`
	Hits  int64   `json:"hits,omitempty"`
}

// WriteJSON writes the aggregates, thread stats and retained spans.
func (tr *Tracer) WriteJSON(path string) error {
	tf := traceFile{SampleEvery: tr.sampleEvery, Threads: tr.ThreadStats(), Aggregates: map[string]aggregateJS{}}
	for name, a := range tr.Aggs() {
		tf.Aggregates[name] = aggregateJS{Calls: a.Calls, Fails: a.Fails, BusyS: a.Busy.Seconds(),
			SelfS: a.Self.Seconds(), Items: a.Items, Hits: a.Hits}
	}
	tr.mu.Lock()
	tf.Dropped = tr.dropped
	tf.Spans = append([]Span(nil), tr.kept...)
	tr.mu.Unlock()
	data, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
