package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const (
	tFrame = iota
	tA
	tB
	tC
	tFan
)

var testDefs = []SpanDef{
	tFrame: {Name: "frame", Frame: true, Always: true},
	tA:     {Name: "a"},
	tB:     {Name: "b"},
	tC:     {Name: "c"},
	tFan:   {Name: "fan", Always: true},
}

func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

func TestNestedChildrenSubtract(t *testing.T) {
	tr := NewTracer(testDefs, 1, 100)
	th := tr.Thread(0)
	th.Begin(tA)
	spin(200 * time.Microsecond)
	th.Begin(tB)
	spin(300 * time.Microsecond)
	th.Begin(tC)
	spin(100 * time.Microsecond)
	th.End()
	th.End()
	th.End()
	ag := tr.Aggs()
	if got, want := ag["a"].Self, ag["a"].Busy-ag["b"].Busy; got != want {
		t.Errorf("self(a) = %v, want busy(a)-busy(b) = %v", got, want)
	}
	if got, want := ag["b"].Self, ag["b"].Busy-ag["c"].Busy; got != want {
		t.Errorf("self(b) = %v, want busy(b)-busy(c) = %v", got, want)
	}
	if ag["c"].Self != ag["c"].Busy {
		t.Errorf("leaf self %v != busy %v", ag["c"].Self, ag["c"].Busy)
	}
}

func TestSiblingChildrenAdd(t *testing.T) {
	tr := NewTracer(testDefs, 1, 100)
	th := tr.Thread(0)
	th.Begin(tA)
	for _, n := range []int{tB, tC, tB} {
		th.Begin(n)
		spin(100 * time.Microsecond)
		th.End()
	}
	th.End()
	ag := tr.Aggs()
	if ag["b"].Calls != 2 || ag["c"].Calls != 1 {
		t.Fatalf("calls b=%d c=%d, want 2 and 1", ag["b"].Calls, ag["c"].Calls)
	}
	if got, want := ag["a"].Self, ag["a"].Busy-ag["b"].Busy-ag["c"].Busy; got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
}

// Children on two goroutines overlap; the fan-out parent subtracts the
// union of their intervals, so its self time is the part of its span
// neither child covers.
func TestCrossGoroutineChildrenUnion(t *testing.T) {
	tr := NewTracer(testDefs, 1, 100)
	main := tr.Thread(0)
	fo := main.BeginFanout(tFan)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		th := tr.Thread(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			th.BeginUnder(tFrame, fo)
			th.Begin(tA)
			spin(time.Duration(i) * 2 * time.Millisecond)
			th.End()
			th.End()
		}()
	}
	wg.Wait()
	spin(time.Millisecond)
	main.End()
	ag := tr.Aggs()
	fan := ag["fan"]
	if fan.Self < 0 || fan.Self > fan.Busy {
		t.Fatalf("fan self %v outside [0, %v]", fan.Self, fan.Busy)
	}
	// The summed child durations exceed the union; subtracting the sum
	// would leave (at most) the trailing spin, the union leaves more.
	if fan.Self < time.Millisecond {
		t.Errorf("fan self %v: children were summed, not unioned", fan.Self)
	}
	if fan.Self > fan.Busy-4*time.Millisecond {
		t.Errorf("fan self %v: the 4ms child was not subtracted from %v", fan.Self, fan.Busy)
	}
	for _, st := range tr.ThreadStats() {
		if st.ID > 0 && st.Coverage < 0.99 {
			t.Errorf("thread %d coverage %.3f, want ~1", st.ID, st.Coverage)
		}
	}
}

func TestFanoutUnionClips(t *testing.T) {
	f := &Fanout{}
	for _, iv := range [][2]int64{{0, 10}, {5, 20}, {30, 40}, {35, 38}, {-5, 2}, {90, 120}} {
		f.add(iv[0], iv[1])
	}
	for _, c := range []struct{ lo, want int64 }{
		{0, 20 + 10 + 30},
		{8, 12 + 10 + 30},
		{21, 10 + 30},
		{-10, 25 + 10 + 30},
		{200, 0},
	} {
		if got := f.union(c.lo); got != c.want {
			t.Errorf("union from %d = %d, want %d", c.lo, got, c.want)
		}
	}
}

// Random span trees over several goroutines: self time stays within
// [0, busy] for every name, and every thread's coverage within [0, 1].
func TestSelfNeverNegative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := NewTracer(testDefs, 3, 1000)
	main := tr.Thread(0)
	main.Begin(tFrame)
	for round := 0; round < 20; round++ {
		fo := main.BeginFanout(tFan)
		var wg sync.WaitGroup
		for g := 1; g <= 3; g++ {
			th := tr.Thread(g)
			seed := r.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rr := rand.New(rand.NewSource(seed))
				th.BeginUnder(tFrame, fo)
				depth := 0
				for i := 0; i < 30; i++ {
					th.SetUnit(int64(i))
					if depth > 0 && rr.Intn(2) == 0 {
						th.End()
						depth--
						continue
					}
					th.Begin(tA + rr.Intn(3))
					depth++
					spin(time.Duration(rr.Intn(20)) * time.Microsecond)
				}
				for ; depth > 0; depth-- {
					th.End()
				}
				th.End()
			}()
		}
		wg.Wait()
		main.End()
	}
	main.End()
	for name, a := range tr.Aggs() {
		if a.Self < 0 || a.Self > a.Busy {
			t.Errorf("%s: self %v outside [0, %v]", name, a.Self, a.Busy)
		}
	}
	for _, st := range tr.ThreadStats() {
		if st.Coverage < 0 || st.Coverage > 1 {
			t.Errorf("thread %d coverage %v", st.ID, st.Coverage)
		}
	}
}

func TestSampledRetentionAndJSON(t *testing.T) {
	tr := NewTracer(testDefs, 4, 5)
	th := tr.Thread(0)
	th.Begin(tFrame)
	for u := int64(0); u < 12; u++ {
		th.SetUnit(u)
		th.Begin(tA)
		th.Begin(tB)
		th.End()
		th.End()
	}
	th.End()
	if a := tr.Aggs()["a"]; a.Calls != 12 {
		t.Fatalf("aggregates must count every call: a.Calls = %d", a.Calls)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	// Units 0, 4 and 8 are sampled: two spans each, plus the frame; the
	// cap of 5 keeps the first five records and counts the rest.
	if len(tf.Spans) != 5 || tf.Dropped != 2 {
		t.Fatalf("kept %d spans, dropped %d; want 5 and 2", len(tf.Spans), tf.Dropped)
	}
	ids := map[int64]Span{}
	for _, s := range tf.Spans {
		ids[s.ID] = s
		if s.Name != "frame" && s.Unit%4 != 0 {
			t.Errorf("unsampled unit %d kept", s.Unit)
		}
	}
	linked := 0
	for _, s := range tf.Spans {
		if p, ok := ids[s.Parent]; ok && s.Name == "b" {
			if p.Name != "a" || p.Unit != s.Unit || p.Start > s.Start || p.End < s.End {
				t.Errorf("span b %+v has parent %+v", s, p)
			}
			linked++
		}
	}
	if linked != 2 {
		t.Errorf("%d b spans link to a kept parent, want 2 (units 0 and 4)", linked)
	}
}
