package bench

import (
	"strings"
	"testing"

	"compdiff/internal/targets"
)

var cachedRW *RealWorld

func realWorldForTest(t *testing.T) *RealWorld {
	t.Helper()
	if cachedRW != nil {
		return cachedRW
	}
	rw, err := ComputeRealWorld(nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedRW = rw
	return rw
}

func TestRealWorldAll78Detected(t *testing.T) {
	rw := realWorldForTest(t)
	missed := []string{}
	for id, det := range rw.Detected {
		if !det {
			missed = append(missed, id)
		}
	}
	if len(missed) != 0 {
		t.Fatalf("CompDiff missed %d bugs: %v", len(missed), missed)
	}
	if len(rw.Matrix.Rows) != 78 {
		t.Fatalf("matrix rows = %d, want 78", len(rw.Matrix.Rows))
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	rw := realWorldForTest(t)
	t6 := ComputeTable6(rw)
	if t6.MemByASan != 13 || t6.MemTotal != 13 {
		t.Errorf("MemError: %d/%d by ASan, want 13/13", t6.MemByASan, t6.MemTotal)
	}
	if t6.IntByUBSan != 8 || t6.IntTotal != 8 {
		t.Errorf("IntError: %d/%d by UBSan, want 8/8", t6.IntByUBSan, t6.IntTotal)
	}
	if t6.UninitByMSan != 21 || t6.UninitTotal != 27 {
		t.Errorf("UninitMem: %d/%d by MSan, want 21/27", t6.UninitByMSan, t6.UninitTotal)
	}
	if t6.CaughtTotal != 42 {
		t.Errorf("sanitizers caught %d, want 42", t6.CaughtTotal)
	}
	if got := t6.AllTotal - t6.CaughtTotal; got != 36 {
		t.Errorf("unique to CompDiff = %d, want 36", got)
	}
	out := FormatTable6(t6)
	if !strings.Contains(out, "unique to CompDiff: 36 of 78") {
		t.Errorf("format:\n%s", out)
	}
}

func TestFigure2SubsetShape(t *testing.T) {
	rw := realWorldForTest(t)
	fig := ComputeFigure1(rw.Matrix)
	best, bestN := fig.BestPair()
	worst, worstN := fig.WorstPair()
	if bestN <= worstN {
		t.Fatalf("best %v=%d vs worst %v=%d", best, bestN, worst, worstN)
	}
	// The paper's Figure 2 annotations: best pairs cross families with
	// unoptimizing vs (aggressively) optimizing levels; worst pairs
	// stay within one family.
	if sameFamily(best[0], best[1]) {
		t.Errorf("best pair %v should cross families", best)
	}
	if !sameFamily(worst[0], worst[1]) {
		t.Errorf("worst pair %v should be same-family", worst)
	}
	full := fig.Stats[len(fig.Stats)-1].Max
	if full != 78 {
		t.Errorf("full set detects %d, want 78", full)
	}
	// The recommended pair detects the great majority (the paper: 69
	// of 78 with {clang-O0, gcc-Os}).
	ov, err := ComputeOverhead(rw)
	if err != nil {
		t.Fatal(err)
	}
	if ov.PairBugs < 60 {
		t.Errorf("recommended pair detects %d of %d, want >= 60", ov.PairBugs, ov.FullBugs)
	}
	if ov.FullNs <= ov.PairNs || ov.PairNs <= 0 {
		t.Errorf("overhead ordering wrong: 1=%d 2=%d 10=%d", ov.BaselineNs, ov.PairNs, ov.FullNs)
	}
	t.Logf("\n%s", ov.Format())
	t.Logf("\n%s", fig.Format("Figure 2"))
}

// TestFigure2MatchesExperiments pins Figure 2 and the recommended
// pair to the numbers EXPERIMENTS.md reports; TestFigure2SubsetShape
// keeps the looser shape assertions.
func TestFigure2MatchesExperiments(t *testing.T) {
	rw := realWorldForTest(t)
	fig := ComputeFigure1(rw.Matrix)
	checkPair(t, "best", fig.BestPair, []string{"gcc -O0", "clang -O3"}, 78)
	checkPair(t, "worst", fig.WorstPair, []string{"gcc -O0", "gcc -O1"}, 38)

	var pairIdx []int
	var names []string
	for _, cfg := range RecommendedPair() {
		for i, name := range rw.Matrix.ImplNames {
			if name == cfg.Name() {
				pairIdx = append(pairIdx, i)
				names = append(names, name)
			}
		}
	}
	checkPair(t, "recommended", func() ([]string, int) { return names, rw.Matrix.DetectedBy(pairIdx) },
		[]string{"gcc -Os", "clang -O0"}, 67)
	if got := len(rw.Matrix.Rows); got != 78 {
		t.Errorf("real-world bug matrix has %d rows, want 78", got)
	}
}

func TestTable5Formatting(t *testing.T) {
	rw := realWorldForTest(t)
	out := FormatTable5(rw.Targets, rw)
	for _, want := range []string{"Reported", "Confirmed", "Fixed", "Detected", "78"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 5 missing %q:\n%s", want, out)
		}
	}
	t4 := FormatTable4(rw.Targets)
	if !strings.Contains(t4, "tcpdump") || !strings.Contains(t4, "gpac") {
		t.Errorf("table 4 incomplete:\n%s", t4)
	}
}

func TestSanCaughtConsistentWithPlan(t *testing.T) {
	rw := realWorldForTest(t)
	for _, tg := range rw.Targets {
		for _, b := range tg.Bugs {
			if got := rw.SanCaught[b.ID]; got != b.San {
				t.Errorf("%s: sanitizer outcome %v, planned %v", b.ID, got, b.San)
			}
		}
	}
	_ = targets.CategoryCounts(rw.Targets)
}
