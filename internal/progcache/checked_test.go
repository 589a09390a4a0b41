package progcache_test

import (
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progcache"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
)

// TestGetCheckedMatchesCompile holds the miss path fed a caller's
// checked front end to the record Compile builds from the source, and
// a later Get of the same source to that record.
func TestGetCheckedMatchesCompile(t *testing.T) {
	srcs := []string{targets.ByName("jq").Src, targets.ByName("curl").Src}
	for seed := int64(1); seed <= 12; seed++ {
		srcs = append(srcs, progen.Generate(seed).Src)
	}
	cfgs := compiler.DefaultSet()
	cache := progcache.New(-1)
	for _, src := range srcs {
		info, err := sema.Check(parser.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		got := cache.GetChecked(src, info, cfgs, 2)
		assertSameCompiled(t, progcache.Compile(src, cfgs, 1), got)
		if again := cache.Get(src, cfgs, 1); again != got {
			t.Fatal("Get after GetChecked missed the cached record")
		}
	}
	if st := cache.Stats(); st.Misses != int64(len(srcs)) || st.Hits != int64(len(srcs)) {
		t.Fatalf("stats %+v, want %d misses and %d hits", st, len(srcs), len(srcs))
	}
}
