package bench

import (
	"strings"
	"testing"

	"compdiff/internal/analyzer"
	"compdiff/internal/juliet"
	"compdiff/internal/sanitizer"
)

// computeAtScale evaluates a reduced suite (fast enough for unit runs)
// and caches it across tests in this package.
var cachedT3 *Table3

func table3ForTest(t *testing.T) *Table3 {
	t.Helper()
	if cachedT3 != nil {
		return cachedT3
	}
	suite := juliet.GenerateScaled(4)
	t3, err := ComputeTable3(suite, nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedT3 = t3
	return t3
}

func groupOf(t *testing.T, t3 *Table3, cat analyzer.Category) *GroupResult {
	t.Helper()
	for _, gr := range t3.Groups {
		if gr.Group == cat {
			return gr
		}
	}
	t.Fatalf("no group %v", cat)
	return nil
}

func rate(n, total int) float64 { return float64(n) / float64(max(total, 1)) }

// The five findings of §4.1, asserted as shape invariants on the
// generated suite.

func TestFinding1StaticToolsWeakerWithFPs(t *testing.T) {
	t3 := table3ForTest(t)
	mem := groupOf(t, t3, analyzer.MemoryError)
	// CompDiff beats every static tool on memory errors...
	for name, st := range mem.Static {
		if st.Detected >= mem.CompDiff {
			t.Errorf("static %s detected %d >= CompDiff %d on memory errors", name, st.Detected, mem.CompDiff)
		}
	}
	// ...and static tools have non-negligible FP rates somewhere while
	// CompDiff and the sanitizers have none (guaranteed by the juliet
	// package's good-variant tests).
	anyFP := false
	for _, gr := range t3.Groups {
		for _, st := range gr.Static {
			if st.FalsePos > 0 {
				anyFP = true
			}
		}
	}
	if !anyFP {
		t.Error("expected static-tool false positives somewhere")
	}
}

func TestFinding2CompDiffComplementsSanitizers(t *testing.T) {
	t3 := table3ForTest(t)
	// Higher detection than the combined sanitizers on CWE-588 and 758.
	for _, cat := range []analyzer.Category{analyzer.BadStructPtr, analyzer.GeneralUB} {
		gr := groupOf(t, t3, cat)
		if gr.CompDiff <= gr.SanTotal {
			t.Errorf("%s: CompDiff %d should beat sanitizers %d", gr.Label, gr.CompDiff, gr.SanTotal)
		}
	}
	// Uninit: MSan specializes yet covers little; CompDiff covers most.
	un := groupOf(t, t3, analyzer.UninitMemory)
	if rate(un.San[sanitizer.MSan].Detected, un.Total) > 0.25 {
		t.Errorf("MSan on uninit = %d/%d, want small", un.San[sanitizer.MSan].Detected, un.Total)
	}
	if rate(un.CompDiff, un.Total) < 0.8 {
		t.Errorf("CompDiff on uninit = %d/%d, want large", un.CompDiff, un.Total)
	}
	// Memory errors: sanitizers win overall, CompDiff still has uniques.
	mem := groupOf(t, t3, analyzer.MemoryError)
	if mem.SanTotal <= mem.CompDiff {
		t.Errorf("sanitizers %d should beat CompDiff %d on memory errors", mem.SanTotal, mem.CompDiff)
	}
	if mem.Unique == 0 {
		t.Error("CompDiff should have unique memory-error detections")
	}
	// CWE-469: sanitizers blind, CompDiff complete.
	ps := groupOf(t, t3, analyzer.PtrSubtraction)
	if ps.SanTotal != 0 || ps.CompDiff != ps.Total {
		t.Errorf("CWE-469: san=%d compdiff=%d/%d, want 0 and all", ps.SanTotal, ps.CompDiff, ps.Total)
	}
}

func TestFinding4CompDiffMissesSanitizerSpecialties(t *testing.T) {
	t3 := table3ForTest(t)
	ie := groupOf(t, t3, analyzer.IntegerError)
	if rate(ie.CompDiff, ie.Total) > 0.3 {
		t.Errorf("CompDiff on integer errors = %d/%d, want low", ie.CompDiff, ie.Total)
	}
	if ie.San[sanitizer.UBSan].Detected <= ie.CompDiff {
		t.Error("UBSan should beat CompDiff on integer errors")
	}
	dz := groupOf(t, t3, analyzer.DivByZero)
	if dz.San[sanitizer.UBSan].Detected <= dz.CompDiff {
		t.Error("UBSan should beat CompDiff on divide-by-zero")
	}
}

func TestUniqueDetectionsExist(t *testing.T) {
	t3 := table3ForTest(t)
	if t3.TotalUnique < 10 {
		t.Errorf("total unique = %d, want substantial", t3.TotalUnique)
	}
}

func TestFormatters(t *testing.T) {
	t3 := table3ForTest(t)
	out := FormatTable3(t3)
	for _, want := range []string{"Memory error", "CompDiff", "Unique", "Divide by zero"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q", want)
		}
	}
	t2 := FormatTable2()
	if !strings.Contains(t2, "CWE-121") || !strings.Contains(t2, "18142") {
		t.Errorf("Table 2 output malformed:\n%s", t2)
	}
}

// Figure 1: subset detection grows with size; cross-family pairs with
// distant optimization levels dominate same-family pairs.
func TestFigure1SubsetShape(t *testing.T) {
	t3 := table3ForTest(t)
	fig := ComputeFigure1(t3.Matrix)
	if len(fig.Stats) != 9 { // sizes 2..10
		t.Fatalf("stats = %d", len(fig.Stats))
	}
	for i := 1; i < len(fig.Stats); i++ {
		if fig.Stats[i].Max < fig.Stats[i-1].Max {
			t.Error("max detections should be monotone in subset size")
		}
		if fig.Stats[i].Median < fig.Stats[i-1].Median {
			t.Error("median detections should be monotone in subset size")
		}
	}
	best, bestN := fig.BestPair()
	worst, worstN := fig.WorstPair()
	if bestN <= worstN {
		t.Fatalf("best pair %v (%d) should beat worst %v (%d)", best, bestN, worst, worstN)
	}
	// Best pair crosses families; worst pair stays within one.
	if sameFamily(best[0], best[1]) {
		t.Errorf("best pair %v should be cross-family", best)
	}
	if !sameFamily(worst[0], worst[1]) {
		t.Errorf("worst pair %v should be same-family", worst)
	}
	// The full set detects every matrix row by construction.
	full := fig.Stats[len(fig.Stats)-1]
	if full.Max != len(t3.Matrix.Rows) {
		t.Errorf("full set detects %d of %d", full.Max, len(t3.Matrix.Rows))
	}
	out := fig.Format("Figure 1")
	if !strings.Contains(out, "best pair") {
		t.Error("format output incomplete")
	}
}

func sameFamily(a, b string) bool {
	fa := strings.Split(a, " ")[0]
	fb := strings.Split(b, " ")[0]
	return fa == fb
}

// TestFigure1MatchesExperiments pins Figure 1 at the full Juliet size
// to the numbers EXPERIMENTS.md reports, so a compiler or VM change
// cannot move the reproduction silently. The shape test above holds
// at any scale; this one holds the exact values.
func TestFigure1MatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size Juliet suite")
	}
	t3, err := ComputeTable3(juliet.Generate(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(t3.Matrix.Rows); got != 1185 {
		t.Errorf("Juliet bug matrix has %d rows, want 1185", got)
	}
	fig := ComputeFigure1(t3.Matrix)
	checkPair(t, "best", fig.BestPair, []string{"gcc -O0", "clang -Os"}, 1117)
	checkPair(t, "worst", fig.WorstPair, []string{"gcc -O2", "gcc -O3"}, 413)
}

func checkPair(t *testing.T, what string, pair func() ([]string, int), want []string, wantN int) {
	t.Helper()
	got, n := pair()
	if strings.Join(got, ",") != strings.Join(want, ",") || n != wantN {
		t.Errorf("%s pair %v detects %d, want %v detecting %d", what, got, n, want, wantN)
	}
}
