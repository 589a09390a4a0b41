package compdiff_test

import (
	"context"
	"strings"
	"testing"

	"compdiff"
)

// The public API's end-to-end contract, as a downstream user would
// exercise it.

const stableProg = `
int main() {
    char buf[16];
    long n = read_input(buf, 16L);
    int sum = 0;
    for (long i = 0; i < n; i++) { sum += buf[i] & 127; }
    printf("sum=%d\n", sum);
    return 0;
}
`

const unstableProg = `
int main() {
    int x;
    printf("%d\n", x);
    return 0;
}
`

func TestPublicAPIStable(t *testing.T) {
	suite, err := compdiff.New(stableProg, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Impls) != 10 {
		t.Fatalf("impls = %d", len(suite.Impls))
	}
	if o := suite.Run([]byte("hello")); o.Diverged {
		t.Fatal("stable program diverged")
	}
}

func TestPublicAPIUnstable(t *testing.T) {
	suite, err := compdiff.New(unstableProg, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := suite.Run(nil)
	if !o.Diverged {
		t.Fatal("uninitialized read did not diverge")
	}
	store := compdiff.NewDiffStore("")
	if fresh, _ := store.Add(o); !fresh {
		t.Fatal("store did not record the discrepancy")
	}
	rep := store.Unique()[0].Report(suite.Names())
	if !strings.Contains(rep, "reproducers:") {
		t.Fatalf("report malformed:\n%s", rep)
	}
}

func TestPublicAPIRecommendedPair(t *testing.T) {
	pair := compdiff.RecommendedPair()
	if len(pair) != 2 || pair[0].Family == pair[1].Family {
		t.Fatalf("recommended pair should cross families: %v", pair)
	}
	suite, err := compdiff.New(unstableProg, pair, compdiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o := suite.Run(nil); !o.Diverged {
		t.Fatal("pair missed the uninitialized read")
	}
}

func TestPublicAPICampaign(t *testing.T) {
	c, err := compdiff.NewCampaignPool(unstableProg, [][]byte{{0}}, compdiff.CampaignOptions{FuzzSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(context.Background(), 200)
	if len(c.Diffs()) == 0 {
		t.Fatal("campaign found nothing on a trivially unstable program")
	}
}

func TestPublicAPINormalizer(t *testing.T) {
	n := compdiff.DefaultNormalizer()
	got := string(n.Apply([]byte("at 10:44:23.405830 ptr 0xdeadbeef")))
	if !strings.Contains(got, "<TIME>") || !strings.Contains(got, "<PTR>") {
		t.Fatalf("normalizer output %q", got)
	}
}

func TestPublicAPIBadSourceErrors(t *testing.T) {
	if _, err := compdiff.New("int main( {", compdiff.DefaultImplementations(), compdiff.Options{}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := compdiff.New("int f() { return 0; }", compdiff.DefaultImplementations(), compdiff.Options{}); err == nil {
		t.Fatal("expected missing-main error")
	}
}
