package compiler_test

// The lowering equivalence pin: a canonical dump of every field of
// every compiler.Result (and so of every ir.Program) over a fixed
// corpus, under every configuration the campaign code builds, hashed
// per program into testdata/lowering.digest. Any change to the
// compiler that alters one emitted instruction, slot, diagnostic or
// pass bit fails here by program name. The digest was produced by the
// lowering that predates the shared per-program analysis; regenerate
// it only for an intended output change, with:
//
//	go test ./internal/compiler -run TestLoweringMatchesParent -update

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/evolve"
	"compdiff/internal/hash"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/lowering.digest")

const digestPath = "testdata/lowering.digest"

// corpusProgram is one named source of the equivalence corpus.
type corpusProgram struct {
	name string
	src  string
}

// loweringCorpus returns the golden programs, every built-in target, a
// progen sweep, and the offspring of a few evolve generations.
func loweringCorpus(t testing.TB) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusProgram{"golden/" + filepath.Base(p), string(b)})
	}
	for _, tg := range targets.All() {
		out = append(out, corpusProgram{"target/" + tg.Name, tg.Src})
	}
	for seed := int64(1); seed <= 120; seed++ {
		out = append(out, corpusProgram{fmt.Sprintf("progen/%d", seed), progen.Generate(seed).Src})
	}
	// Evolve offspring: mutated and spliced programs the generator
	// alone never writes. The fitness is a fixed function of the
	// source, so the generations are a pure function of the code.
	opts := evolve.Options{Seed: 19}
	pop := evolve.SeedPopulation(1900, 12)
	seen := map[string]bool{}
	for gen := 0; gen < 5; gen++ {
		fits := make([]float64, len(pop))
		for i, g := range pop {
			fits[i] = float64(hash.Sum64([]byte(g.Src), 0x19) % 1000)
		}
		pop = evolve.NextGeneration(pop, fits, gen, opts)
		for i, g := range pop {
			if !seen[g.Src] {
				seen[g.Src] = true
				out = append(out, corpusProgram{fmt.Sprintf("evolve/%d.%d", gen+1, i), g.Src})
			}
		}
	}
	return out
}

// campaignConfigs is every Config the campaign code builds: the ten
// differential implementations, the instrumented B_fuzz binary under
// each sanitizer setting, and the standalone sanitizer builds.
func campaignConfigs() []compiler.Config {
	cfgs := compiler.DefaultSet()
	cfgs = append(cfgs,
		compiler.Config{Family: compiler.Clang, Opt: compiler.O2, Instrument: true},
		compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true, Sanitize: true},
		compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true, Sanitize: true, ASan: true},
		compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Sanitize: true},
		compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Sanitize: true, ASan: true},
	)
	return cfgs
}

// checkedInfo runs the front end; ok is false for a front-end reject.
func checkedInfo(t testing.TB, src string) (*sema.Info, bool) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, false
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, false
	}
	return info, true
}

// dumpValue writes a canonical rendering of v: every exported and
// unexported field of structs, pointers followed, maps in sorted key
// order, floats by bit pattern, errors by their text.
func dumpValue(b *strings.Builder, v reflect.Value) {
	if v.Kind() == reflect.Interface {
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		if err, ok := v.Interface().(error); ok {
			b.WriteString("error(" + strconv.Quote(err.Error()) + ")")
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('&')
		dumpValue(b, v.Elem())
	case reflect.Struct:
		b.WriteString(v.Type().Name())
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(v.Type().Field(i).Name + ":")
			dumpValue(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString("[" + strconv.Itoa(v.Len()) + ":")
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, v.Index(i))
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		keys := make([]string, 0, v.Len())
		vals := map[string]reflect.Value{}
		for it := v.MapRange(); it.Next(); {
			var kb strings.Builder
			dumpValue(&kb, it.Key())
			keys = append(keys, kb.String())
			vals[kb.String()] = it.Value()
		}
		sort.Strings(keys)
		b.WriteString("map{")
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			dumpValue(b, vals[k])
			b.WriteByte(',')
		}
		b.WriteByte('}')
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString("f" + strconv.FormatUint(math.Float64bits(v.Float()), 16))
	default:
		panic(fmt.Sprintf("dumpValue: unhandled kind %s", v.Kind()))
	}
}

// dumpResults is the canonical dump of one program's results.
func dumpResults(results []compiler.Result) string {
	var b strings.Builder
	for i := range results {
		fmt.Fprintf(&b, "#%d ", i)
		dumpValue(&b, reflect.ValueOf(results[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// resultsDigest hashes the canonical dump of one program's results.
func resultsDigest(results []compiler.Result) string {
	lo, hi := hash.Sum128([]byte(dumpResults(results)), 0x1019)
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// guardedResults lowers info under each configuration in turn.
func guardedResults(info *sema.Info, cfgs []compiler.Config) []compiler.Result {
	out := make([]compiler.Result, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = compiler.CompileGuarded(info, cfg)
	}
	return out
}

func readDigest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// corpusDigests lowers every corpus program under cfgs with lower and
// digests each program's results ("frontend-reject" when the front
// end refuses it).
func corpusDigests(t *testing.T, corpus []corpusProgram, cfgs []compiler.Config,
	lower func(*sema.Info, []compiler.Config) []compiler.Result) []string {
	t.Helper()
	out := make([]string, len(corpus))
	for i, p := range corpus {
		info, ok := checkedInfo(t, p.src)
		if !ok {
			out[i] = "frontend-reject"
			continue
		}
		out[i] = resultsDigest(lower(info, cfgs))
	}
	return out
}

// TestLoweringMatchesParent holds both lowering entry points, the
// per-configuration CompileGuarded and the shared-analysis CompileAll,
// to the pinned digest.
func TestLoweringMatchesParent(t *testing.T) {
	corpus := loweringCorpus(t)
	cfgs := campaignConfigs()
	guarded := corpusDigests(t, corpus, cfgs, guardedResults)

	if *updateDigest {
		var b strings.Builder
		fmt.Fprintf(&b, "# %d programs x %d configurations; see lowering_digest_test.go\n", len(corpus), len(cfgs))
		for i, p := range corpus {
			fmt.Fprintf(&b, "%s %s\n", p.name, guarded[i])
		}
		if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigest(t)
	if len(want) != len(corpus) {
		t.Errorf("digest file has %d programs, corpus has %d", len(want), len(corpus))
	}
	all := corpusDigests(t, corpus, cfgs, func(info *sema.Info, cfgs []compiler.Config) []compiler.Result {
		return compiler.CompileAll(info, cfgs, 1)
	})
	for i, p := range corpus {
		w, ok := want[p.name]
		if !ok {
			t.Errorf("%s: not in the digest file", p.name)
			continue
		}
		if guarded[i] != w {
			t.Errorf("%s: CompileGuarded digest %s, want %s", p.name, guarded[i], w)
		}
		if all[i] != w {
			t.Errorf("%s: CompileAll digest %s, want %s", p.name, all[i], w)
		}
	}
}
