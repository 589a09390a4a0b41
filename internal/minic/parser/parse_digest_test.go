package parser_test

// The front-end equivalence pin: a canonical dump of every Parse
// result — the token stream and lexical errors, the AST with every
// position and literal type, and the joined error text — over a fixed
// corpus, hashed per input into testdata/parse.digest. Any change to
// the lexer or parser that moves one token, position, literal value
// or diagnostic fails here by input name. The digest was produced by
// the front end that predates the in-place token storage; regenerate
// it only for an intended output change, with:
//
//	go test ./internal/minic/parser -run TestParseMatchesParent -update

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"compdiff/internal/evolve"
	"compdiff/internal/hash"
	"compdiff/internal/minic/lexer"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/token"
	"compdiff/internal/minic/types"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/parse.digest")

const digestPath = "testdata/parse.digest"

// maxLexErrors is the lexer's error cap. Inputs at or above it are
// left out of the pinned corpus: the cap is the one intended change in
// their error text.
const maxLexErrors = 25

type corpusInput struct {
	name string
	src  string
}

// malformedInputs reach every lexical error and a spread of syntax
// errors, each with fewer than maxLexErrors lexical errors.
var malformedInputs = []string{
	"/* unterminated",
	"int main() { /* never closed\n return 0; }",
	"int main() { return 1.5e+; }",
	"int main() { return 0x; }",
	"int main() { return 0xZ1; }",
	"int main() { return 99999999999999999999; }",
	"int main() { return 18446744073709551616UL; }",
	"int main() { return 1e400; }",
	"int main() { return .5 + 1.e3 + 2E-2f; }",
	`int main() { char* s = "no end; return 0; }`,
	"int main() { char* s = \"line\nbreak\"; }",
	`int main() { char* s = "esc\`,
	`int main() { char* s = "\q\w\e"; return 0; }`,
	`int main() { char* s = "\x4g\x\x414243"; return 0; }`,
	"int main() { return '",
	`int main() { return '\`,
	"int main() { return 'ab'; }",
	`int main() { return '\z'; }`,
	`int main() { return '\x80' + '\xff' + '\0' + '\''; }`,
	"int main() { return @; }",
	"int main() { int $x = 1; return `x`; }",
	"#include <stdio.h>\nint main() { return 0; }",
	"int main() { return 0; } \x00\x01\xff",
	"int main() { return 0 }",
	"int main( { return 0; }",
	"int main() { if (1 { return 0; } }",
	"int main() { for (int i = 0; i < 3 i++) {} return 0; }",
	"int main() { int a[; return 0; }",
	"int main() { x = = 1; }",
	"struct S { int x; int main() { return 0; }",
	"struct S { 1; }; int main() { return 0; }",
	"int f(int, int) { return 0; }",
	"int main() { return sizeof(x); }",
	"int main() { return (1)(2); }",
	"int main() { return a.; }",
	"int main() { return p->1; }",
	"int g = ; int main() { return g; }",
	"int main() { return 1 ? 2; }",
	"static",
	"int",
	"int main",
	"int main()",
	"}}}}",
	";;;",
	"int main() { else { } }",
	"unsigned unsigned x;",
	"const const int main() { return 0; }",
	"int main() { int x, ; return 0; }",
	"int main() { __LINE__ = 3; return __LINE__; }",
}

// parseCorpus returns the golden programs, every built-in target, a
// progen sweep, evolve offspring, the FuzzParse seeds and checked-in
// corpus, the malformed inputs, and truncated and byte-edited variants
// of the golden programs and targets.
func parseCorpus(t testing.TB) []corpusInput {
	t.Helper()
	var out []corpusInput
	var wellFormed []corpusInput
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		wellFormed = append(wellFormed, corpusInput{"golden/" + filepath.Base(p), string(b)})
	}
	for _, tg := range targets.All() {
		wellFormed = append(wellFormed, corpusInput{"target/" + tg.Name, tg.Src})
	}
	out = append(out, wellFormed...)
	for seed := int64(1); seed <= 120; seed++ {
		out = append(out, corpusInput{fmt.Sprintf("progen/%d", seed), progen.Generate(seed).Src})
	}
	// Evolve offspring: spliced idioms, outlined literals and widened
	// expressions the generator alone never writes. The fitness is a
	// fixed function of the source, so the generations are a pure
	// function of the code.
	pop := evolve.SeedPopulation(2000, 12)
	seen := map[string]bool{}
	for gen := 0; gen < 5; gen++ {
		fits := make([]float64, len(pop))
		for i, g := range pop {
			fits[i] = float64(hash.Sum64([]byte(g.Src), 0x20) % 1000)
		}
		pop = evolve.NextGeneration(pop, fits, gen, evolve.Options{Seed: 20})
		for i, g := range pop {
			if !seen[g.Src] {
				seen[g.Src] = true
				out = append(out, corpusInput{fmt.Sprintf("evolve/%d.%d", gen+1, i), g.Src})
			}
		}
	}
	for i, s := range fuzzParseSeeds {
		out = append(out, corpusInput{fmt.Sprintf("fuzzseed/%d", i), s})
	}
	fuzzFiles, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fuzzFiles {
		out = append(out, corpusInput{"fuzzcorpus/" + filepath.Base(p), readFuzzString(t, p)})
	}
	for i, s := range malformedInputs {
		out = append(out, corpusInput{fmt.Sprintf("malformed/%d", i), s})
	}
	for _, w := range wellFormed {
		for _, frac := range []int{3, 5, 7} {
			cut := len(w.src) * (frac - 1) / frac
			out = append(out, corpusInput{fmt.Sprintf("%s/prefix%d", w.name, frac), w.src[:cut]})
		}
		for i, edit := range []string{"@", "\"", "'", "/*", "}", "(", "0x"} {
			b := []byte(w.src)
			var e strings.Builder
			for j := 0; j < len(b); j++ {
				if j > 0 && j%(401+97*i) == 0 {
					e.WriteString(edit)
				}
				e.WriteByte(b[j])
			}
			out = append(out, corpusInput{fmt.Sprintf("%s/edit%d", w.name, i), e.String()})
		}
	}
	kept := out[:0]
	for _, in := range out {
		lx := lexer.New(in.src)
		lx.All()
		if len(lx.Errors()) < maxLexErrors {
			kept = append(kept, in)
		}
	}
	return kept
}

// readFuzzString decodes a one-string "go test fuzz v1" corpus file.
func readFuzzString(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
		t.Fatalf("%s: not a one-string fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// dumper renders values canonically: every exported and unexported
// struct field, pointers followed, floats by bit pattern, errors by
// their text. Struct types are numbered by identity, so the dump also
// pins which declarations share one parser-interned struct type.
//
// Two layout details stay out of the dump. The dense node ids
// (ast.nodeID) are sema's, not the parser's: the dump checks that a
// parse leaves them zero and writes nothing for them. And token.Token
// is written in its field order when the digest was pinned
// (tokenFields): Kind has since moved beside the two flags to pack the
// struct, which is layout, not lexer behaviour.
type dumper struct {
	b       strings.Builder
	structs map[*types.Type]int
}

var (
	typePtr   = reflect.TypeOf((*types.Type)(nil))
	tokenType = reflect.TypeOf(token.Token{})
)

// tokenFields is token.Token's field order in the pinned digest.
var tokenFields = []string{"Kind", "Text", "Pos", "IntVal", "FloatVal", "StrVal", "Unsigned", "Long"}

// fieldOrder lists the struct fields of t in dump order.
func fieldOrder(t reflect.Type) []reflect.StructField {
	if t == tokenType {
		if t.NumField() != len(tokenFields) {
			panic(fmt.Sprintf("dump: token.Token has %d fields, the pinned order %d", t.NumField(), len(tokenFields)))
		}
		fields := make([]reflect.StructField, len(tokenFields))
		for i, name := range tokenFields {
			f, ok := t.FieldByName(name)
			if !ok {
				panic("dump: token.Token has no field " + name)
			}
			fields[i] = f
		}
		return fields
	}
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
	}
	return fields
}

// isNodeID reports whether f is the embedded dense node id of an AST
// node.
func isNodeID(f reflect.StructField) bool {
	return f.Anonymous && f.Type.Name() == "nodeID" && f.Type.PkgPath() == "compdiff/internal/minic/ast"
}

func (d *dumper) value(v reflect.Value) {
	if v.Kind() == reflect.Interface {
		if v.IsNil() {
			d.b.WriteString("nil")
			return
		}
		if err, ok := v.Interface().(error); ok {
			d.b.WriteString("error(" + strconv.Quote(err.Error()) + ")")
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			d.b.WriteString("nil")
			return
		}
		if v.Type() == typePtr {
			if t := v.Interface().(*types.Type); t.Kind == types.Struct {
				id, ok := d.structs[t]
				if !ok {
					id = len(d.structs)
					d.structs[t] = id
				}
				fmt.Fprintf(&d.b, "struct#%d", id)
			}
		}
		d.b.WriteByte('&')
		d.value(v.Elem())
	case reflect.Struct:
		d.b.WriteString(v.Type().Name())
		d.b.WriteByte('{')
		for _, f := range fieldOrder(v.Type()) {
			fv := v.FieldByIndex(f.Index)
			if isNodeID(f) {
				if !fv.IsZero() {
					panic("dump: the parser gave a node a dense id")
				}
				continue
			}
			d.b.WriteString(f.Name + ":")
			d.value(fv)
			d.b.WriteByte(' ')
		}
		d.b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			d.b.WriteString("nil")
			return
		}
		d.b.WriteString("[" + strconv.Itoa(v.Len()) + ":")
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
			d.b.WriteByte(',')
		}
		d.b.WriteByte(']')
	case reflect.String:
		d.b.WriteString(strconv.Quote(v.String()))
	case reflect.Bool:
		d.b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		d.b.WriteString("f" + strconv.FormatUint(math.Float64bits(v.Float()), 16))
	default:
		panic(fmt.Sprintf("dump: unhandled kind %s", v.Kind()))
	}
}

// dumpParse is the canonical dump of one input through the lexer and
// the parser: tokens, lexical errors, the (possibly partial) program,
// and the error Parse returns.
func dumpParse(src string) string {
	d := &dumper{structs: map[*types.Type]int{}}
	lx := lexer.New(src)
	d.b.WriteString("tokens ")
	d.value(reflect.ValueOf(lx.All()))
	d.b.WriteString("\nlexerrs ")
	d.value(reflect.ValueOf(lx.Errors()))
	prog, err := parser.Parse(src)
	d.b.WriteString("\nprog ")
	d.value(reflect.ValueOf(prog))
	d.b.WriteString("\nerr ")
	if err != nil {
		d.b.WriteString(strconv.Quote(err.Error()))
	} else {
		d.b.WriteString("nil")
	}
	return d.b.String()
}

func parseDigest(src string) string {
	lo, hi := hash.Sum128([]byte(dumpParse(src)), 0x2020)
	return fmt.Sprintf("%016x%016x", hi, lo)
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

// TestParseMatchesParent holds the lexer and parser to the pinned
// digest.
func TestParseMatchesParent(t *testing.T) {
	corpus := parseCorpus(t)
	got := make([]string, len(corpus))
	for i, in := range corpus {
		got[i] = parseDigest(in.src)
	}

	if *updateDigest {
		var b strings.Builder
		fmt.Fprintf(&b, "# %d inputs; see parse_digest_test.go\n", len(corpus))
		for i, in := range corpus {
			fmt.Fprintf(&b, "%s %s\n", in.name, got[i])
		}
		if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readDigest(t)
	if len(want) != len(corpus) {
		t.Errorf("digest file has %d inputs, corpus has %d", len(want), len(corpus))
	}
	for i, in := range corpus {
		w, ok := want[in.name]
		if !ok {
			t.Errorf("%s: not in the digest file", in.name)
			continue
		}
		if got[i] != w {
			t.Errorf("%s: digest %s, want %s", in.name, got[i], w)
		}
	}
}
