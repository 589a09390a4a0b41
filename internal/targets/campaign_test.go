package targets

import (
	"context"
	"strings"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
)

// End-to-end §4.3: CompDiff-AFL++ campaigns against the real-world
// targets discover planted bugs from benign seeds — the paper's
// pipeline, not just trigger-replay.

func runCampaign(t *testing.T, name string, budget int64) *difffuzz.Pool {
	t.Helper()
	tg := ByName(name)
	if tg == nil {
		t.Fatalf("no target %s", name)
	}
	var norm *core.Normalizer
	if tg.NeedsNormalizer {
		norm = core.DefaultNormalizer()
	}
	c, err := difffuzz.NewPool(tg.Src, tg.Seeds, difffuzz.Options{
		FuzzSeed:    1337,
		MaxInputLen: 64,
		Normalizer:  norm,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(context.Background(), budget)
	return c
}

func TestCampaignFindsTcpdumpEvalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	c := runCampaign(t, "tcpdump", 20_000)
	if len(c.Diffs()) == 0 {
		t.Fatalf("campaign found nothing; stats %+v", c.Stats())
	}
	// At least one discrepancy must be the ARP/TCP eval-order bug:
	// its report shows the family split (all gcc vs all clang).
	foundFamilySplit := false
	for _, d := range c.Diffs() {
		rep := d.Report(c.ImplNames())
		if strings.Contains(rep, "who-is") || strings.Contains(rep, "ports") {
			foundFamilySplit = true
		}
	}
	if !foundFamilySplit {
		t.Log("eval-order bug not among diffs; found:")
		for _, d := range c.Diffs() {
			t.Log(d.Report(c.ImplNames()))
		}
		t.Fatal("expected the Listing 3 discrepancy")
	}
}

func TestCampaignFindsReadelfBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	c := runCampaign(t, "readelf", 15_000)
	if got := len(c.Diffs()); got < 2 {
		t.Fatalf("unique discrepancies = %d, want >= 2 (ptr-compare, LINE, uninit)", got)
	}
}

func TestCampaignFindsExiv2Listing4(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	c := runCampaign(t, "exiv2", 15_000)
	if len(c.Diffs()) == 0 {
		t.Fatal("exiv2 campaign found no uninitialized-read discrepancies")
	}
}
