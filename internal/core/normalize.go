package core

import (
	"regexp"
	"slices"
	"sync"
)

// Normalizer rewrites captured output before comparison, removing
// fields that legitimately differ per run or per binary — timestamps,
// random cookies, printed addresses (RQ5). The paper's wireshark
// example filters "10:44:23.405830 [Epan WARNING]" timestamps the
// same way.
type Normalizer struct {
	rules []rule
}

type rule struct {
	re   *regexp.Regexp
	repl []byte
}

// NewNormalizer returns an empty normalizer.
func NewNormalizer() *Normalizer { return &Normalizer{} }

// Add registers a regular expression whose matches are replaced by
// repl. It returns the normalizer for chaining.
func (n *Normalizer) Add(pattern, repl string) *Normalizer {
	n.rules = append(n.rules, rule{re: regexp.MustCompile(pattern), repl: []byte(repl)})
	return n
}

// Apply rewrites out, returning a new slice if any rule matched.
func (n *Normalizer) Apply(out []byte) []byte {
	for _, r := range n.rules {
		out = r.re.ReplaceAll(out, r.repl)
	}
	return out
}

// DefaultNormalizer filters the non-determinism classes the paper's
// RQ5 encountered: clock timestamps (HH:MM:SS.uuuuuu) and printed
// pointer values (0x...). Programs whose remaining output is
// deterministic become analyzable by CompDiff.
//
// Every normalizer it returns shares one compiled copy of the rules (a
// regexp is safe for concurrent use); Add on one of them leaves the
// others alone.
func DefaultNormalizer() *Normalizer {
	return &Normalizer{rules: slices.Clip(defaultRules())}
}

// defaultRules compiles DefaultNormalizer's rules once per process.
var defaultRules = sync.OnceValue(func() []rule {
	return NewNormalizer().
		Add(`\d{2}:\d{2}:\d{2}\.\d{3,6}`, "<TIME>").
		Add(`0x[0-9a-f]{4,16}`, "<PTR>").rules
})
