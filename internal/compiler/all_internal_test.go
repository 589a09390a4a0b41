package compiler

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSharedAnalysisPanicIsICE: a panic while one lowering computes a
// shared analysis part becomes an ICE result of every configuration
// that needs the part, raised again with the same text, and leaves the
// configurations that do not need it untouched.
func TestSharedAnalysisPanicIsICE(t *testing.T) {
	info := checked(t, `int main() { int x = 1; if (x + 1 < x) return 1; return x; }`)
	cfgs := DefaultSet()
	key := Config{Family: Clang, Opt: O2}.passes().analysisKey()

	an := newAnalysis(info)
	var text string
	func() {
		defer func() { text = fmt.Sprint(recover()) }()
		an.decisions(key, 0, nil) // a nil function makes the analysis fault
	}()
	var hit int
	for _, cfg := range cfgs {
		got := compileGuarded(an, cfg, &scratch{})
		if cfg.passes().analysisKey() != key {
			if want := CompileGuarded(info, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: result changed by another key's analysis panic:\n got %+v\nwant %+v", cfg.Name(), got, want)
			}
			continue
		}
		hit++
		if got.ICE != text || got.Prog != nil || got.Err == nil ||
			!strings.Contains(got.Err.Error(), "internal compiler error: "+text) {
			t.Errorf("%s: got ICE %q err %v, want ICE %q", cfg.Name(), got.ICE, got.Err, text)
		}
	}
	if hit < 2 {
		t.Fatalf("only %d configurations share the faulting analysis key", hit)
	}

	// The constant-UB site list is needed by every configuration.
	an = newAnalysis(info)
	func() {
		defer func() { recover() }()
		an.ubSites.get(func() []ubSite { panic("site scan fault") })
	}()
	for _, cfg := range cfgs {
		if got := compileGuarded(an, cfg, &scratch{}); got.ICE != "site scan fault" || got.Prog != nil {
			t.Errorf("%s: got ICE %q after a site-scan panic", cfg.Name(), got.ICE)
		}
	}
}
