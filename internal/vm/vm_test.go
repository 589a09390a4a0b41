package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/vm"
)

// runWith compiles src under cfg and runs it on input.
func runWith(t *testing.T, src string, cfg compiler.Config, input []byte) *vm.Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	bin, err := compiler.Compile(info, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(bin, vm.Options{})
	return m.Run(input)
}

// run uses the baseline implementation (gcc -O0).
func run(t *testing.T, src string, input []byte) *vm.Result {
	return runWith(t, src, compiler.Config{Family: compiler.GCC, Opt: compiler.O0}, input)
}

// stdoutOf asserts a clean exit and returns stdout.
func stdoutOf(t *testing.T, src string, input []byte) string {
	t.Helper()
	res := run(t, src, input)
	if res.Exit != vm.Exited || res.Code != 0 {
		t.Fatalf("exit = %s code=%d stderr=%q", res.Exit, res.Code, res.Stderr)
	}
	return string(res.Stdout)
}

// allOutputs runs src on input under every default implementation and
// returns the distinct canonical outputs with their compiler names.
func allOutputs(t *testing.T, src string, input []byte) map[string][]string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	outs := map[string][]string{}
	for _, cfg := range compiler.DefaultSet() {
		bin, err := compiler.Compile(info, cfg)
		if err != nil {
			t.Fatalf("compile %s: %v", cfg.Name(), err)
		}
		res := vm.New(bin, vm.Options{}).Run(input)
		key := string(res.Encode())
		outs[key] = append(outs[key], cfg.Name())
	}
	return outs
}

// requireStable asserts that all 10 implementations agree.
func requireStable(t *testing.T, src string, input []byte) {
	t.Helper()
	outs := allOutputs(t, src, input)
	if len(outs) != 1 {
		var b strings.Builder
		for out, impls := range outs {
			fmt.Fprintf(&b, "--- %v:\n%s\n", impls, out)
		}
		t.Fatalf("defined program diverged across implementations:\n%s", b.String())
	}
}

// requireUnstable asserts that at least two implementations disagree.
func requireUnstable(t *testing.T, src string, input []byte) map[string][]string {
	t.Helper()
	outs := allOutputs(t, src, input)
	if len(outs) < 2 {
		for out := range outs {
			t.Fatalf("expected divergence, all implementations produced:\n%s", out)
		}
	}
	return outs
}

// ---------------------------------------------------------------------------
// Defined-behaviour correctness

func TestHelloWorld(t *testing.T) {
	got := stdoutOf(t, `int main() { printf("hello, world\n"); return 0; }`, nil)
	if got != "hello, world\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestArithmetic(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    int a = 17;
    int b = 5;
    printf("%d %d %d %d %d\n", a + b, a - b, a * b, a / b, a % b);
    printf("%d %d %d\n", a << 2, a >> 1, a & b);
    printf("%d %d %d\n", a | b, a ^ b, ~a);
    printf("%d %d %d %d\n", a > b, a == b, a != b, a <= b);
    long big = 4000000000L;
    printf("%ld %ld\n", big * 2L, big / 7L);
    unsigned int u = 4000000000U;
    printf("%u\n", u + 1000000000U);
    return 0;
}`, nil)
	want := "22 12 85 3 2\n68 8 1\n21 20 -18\n1 0 1 0\n8000000000 571428571\n705032704\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestUnsignedWrapIsDefined(t *testing.T) {
	requireStable(t, `
int main() {
    unsigned int x = 4294967295U;
    x = x + 1U;
    printf("%u\n", x);
    return 0;
}`, nil)
	got := stdoutOf(t, `
int main() {
    unsigned int x = 4294967295U;
    printf("%u\n", x + 1U);
    return 0;
}`, nil)
	if got != "0\n" {
		t.Fatalf("got %q", got)
	}
}

func TestControlFlow(t *testing.T) {
	got := stdoutOf(t, `
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
    }
    return steps;
}
int main() {
    for (int i = 1; i <= 6; i++) {
        printf("%d:%d ", i, collatz(i));
    }
    printf("\n");
    int i = 0;
    int sum = 0;
    for (;;) {
        i++;
        if (i % 3 == 0) { continue; }
        if (i > 10) { break; }
        sum += i;
    }
    printf("sum=%d\n", sum);
    return 0;
}`, nil)
	want := "1:0 2:1 3:7 4:2 5:5 6:8 \nsum=37\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestRecursion(t *testing.T) {
	got := stdoutOf(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    printf("%d\n", fib(20));
    return 0;
}`, nil)
	if got != "6765\n" {
		t.Fatalf("got %q", got)
	}
}

func TestPointersAndArrays(t *testing.T) {
	got := stdoutOf(t, `
void bump(int* p) { *p = *p + 1; }
int main() {
    int a[5];
    for (int i = 0; i < 5; i++) { a[i] = i * i; }
    int* p = a;
    bump(p + 2);
    printf("%d %d %d\n", a[2], *(a + 4), p[1]);
    long diff = (a + 4) - a;
    printf("%ld\n", diff);
    return 0;
}`, nil)
	if got != "5 16 1\n4\n" {
		t.Fatalf("got %q", got)
	}
}

func TestStrings(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    char buf[32];
    strcpy(buf, "abc");
    strcat(buf, "def");
    printf("%s %ld %d\n", buf, strlen(buf), strcmp(buf, "abcdef"));
    char dst[8];
    strncpy(dst, "xy", 4L);
    printf("%c%c%d%d\n", dst[0], dst[1], dst[2], dst[3]);
    return 0;
}`, nil)
	if got != "abcdef 6 0\nxy00\n" {
		t.Fatalf("got %q", got)
	}
}

func TestHeap(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    int* p = (int*)malloc(40L);
    if (p == 0) { return 1; }
    for (int i = 0; i < 10; i++) { p[i] = i; }
    int sum = 0;
    for (int i = 0; i < 10; i++) { sum += p[i]; }
    free(p);
    char* s = (char*)malloc(8L);
    memset(s, 65, 7L);
    s[7] = '\0';
    printf("%d %s\n", sum, s);
    free(s);
    return 0;
}`, nil)
	if got != "45 AAAAAAA\n" {
		t.Fatalf("got %q", got)
	}
}

func TestStructs(t *testing.T) {
	got := stdoutOf(t, `
struct Point { int x; int y; };
struct Rect { struct Point a; struct Point b; };
int area(struct Rect* r) {
    return (r->b.x - r->a.x) * (r->b.y - r->a.y);
}
int main() {
    struct Rect r;
    r.a.x = 1; r.a.y = 2;
    r.b.x = 5; r.b.y = 7;
    printf("%d %ld\n", area(&r), sizeof(struct Rect));
    return 0;
}`, nil)
	if got != "20 16\n" {
		t.Fatalf("got %q", got)
	}
}

func TestGlobalsAndStatics(t *testing.T) {
	got := stdoutOf(t, `
int counter = 10;
char* tag = "G";
int bump() {
    static int calls = 0;
    calls++;
    counter += calls;
    return calls;
}
int main() {
    bump(); bump(); bump();
    printf("%s %d\n", tag, counter);
    return 0;
}`, nil)
	if got != "G 16\n" {
		t.Fatalf("got %q", got)
	}
}

func TestInputBuiltins(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    printf("%ld ", input_size());
    printf("%d %d %d\n", input_byte(0L), input_byte(2L), input_byte(99L));
    char buf[16];
    long n = read_input(buf, 15L);
    buf[n] = '\0';
    printf("[%s]\n", buf);
    return 0;
}`, []byte("hey"))
	if got != "3 104 121 -1\n[hey]\n" {
		t.Fatalf("got %q", got)
	}
}

func TestTernaryAndShortCircuit(t *testing.T) {
	got := stdoutOf(t, `
int called = 0;
int side(int v) { called++; return v; }
int main() {
    int x = 5;
    printf("%d ", x > 3 ? 10 : 20);
    if (x > 0 || side(1)) { printf("or-short "); }
    if (x < 0 && side(1)) { printf("bad "); }
    printf("%d\n", called);
    return 0;
}`, nil)
	if got != "10 or-short 0\n" {
		t.Fatalf("got %q", got)
	}
}

func TestIncDec(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    int i = 5;
    printf("%d %d %d %d %d\n", i++, i, ++i, i--, --i);
    int a[3];
    a[0] = 1; a[1] = 2; a[2] = 3;
    int* p = a;
    p++;
    printf("%d\n", *p);
    return 0;
}`, nil)
	// Call args evaluate in a fixed order per implementation; under
	// gcc -O0 (right-to-left) the trace differs from left-to-right.
	// We only check it runs and is self-consistent with the baseline.
	if len(got) == 0 {
		t.Fatal("no output")
	}
}

func TestFloatArithmetic(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    double d = 2.5;
    double e = 0.5;
    printf("%f %f %f\n", d + e, d * e, d / e);
    printf("%.2f\n", sqrt(16.0));
    float f = 1.5;
    printf("%f\n", f + 0.25);
    return 0;
}`, nil)
	want := "3.000000 1.250000 5.000000\n4.00\n1.750000\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestExitBuiltin(t *testing.T) {
	res := run(t, `int main() { printf("before\n"); exit(7); printf("after\n"); return 0; }`, nil)
	if res.Exit != vm.Exited || res.Code != 7 {
		t.Fatalf("exit = %v code=%d", res.Exit, res.Code)
	}
	if string(res.Stdout) != "before\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestExitCodeFromMain(t *testing.T) {
	res := run(t, `int main() { return 42; }`, nil)
	if res.Exit != vm.Exited || res.Code != 42 {
		t.Fatalf("exit = %v code = %d", res.Exit, res.Code)
	}
}

func TestCompoundAssignments(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    int x = 100;
    x += 5; x -= 2; x *= 2; x /= 3; x %= 50;
    printf("%d ", x);
    x = 3;
    x <<= 2; x |= 1; x ^= 2; x &= 14;
    printf("%d\n", x);
    long arr[2];
    arr[0] = 10;
    arr[0] += 32;
    printf("%ld\n", arr[0]);
    return 0;
}`, nil)
	if got != "18 14\n42\n" {
		t.Fatalf("got %q", got)
	}
}

func TestAssignAsExpression(t *testing.T) {
	got := stdoutOf(t, `
int main() {
    int a;
    int b;
    a = b = 7;
    printf("%d %d ", a, b);
    int c = 0;
    if ((c = a + 1) > 7) { printf("%d", c); }
    printf("\n");
    return 0;
}`, nil)
	if got != "7 7 8\n" {
		t.Fatalf("got %q", got)
	}
}

// ---------------------------------------------------------------------------
// Stability of defined programs (the core soundness property)

func TestDefinedProgramsAreStable(t *testing.T) {
	programs := map[string]string{
		"sorting": `
int main() {
    int a[8];
    for (int i = 0; i < 8; i++) { a[i] = 0; }
    long n = read_input((char*)a, 32L);
    for (int i = 0; i < 8; i++) { if (a[i] < 0) { a[i] = -a[i] / 2; } }
    for (int i = 0; i < 8; i++) {
        for (int j = i + 1; j < 8; j++) {
            if (a[j] < a[i]) { int tmp = a[i]; a[i] = a[j]; a[j] = tmp; }
        }
    }
    for (int i = 0; i < 8; i++) { printf("%d ", a[i]); }
    printf("\n");
    return 0;
}`,
		"hashing": `
unsigned int fnv(char* s, long n) {
    unsigned int h = 2166136261U;
    for (long i = 0; i < n; i++) {
        h = h ^ (unsigned int)(unsigned char)s[i];
        h = h * 16777619U;
    }
    return h;
}
int main() {
    char buf[64];
    long n = read_input(buf, 64L);
    printf("%u\n", fnv(buf, n));
    return 0;
}`,
		"linkedlist": `
struct Node { int v; struct Node* next; };
int main() {
    struct Node* head = 0;
    for (int i = 0; i < 5; i++) {
        struct Node* n = (struct Node*)malloc(16L);
        n->v = i * 3;
        n->next = head;
        head = n;
    }
    int sum = 0;
    struct Node* cur = head;
    while (cur != 0) { sum += cur->v; cur = cur->next; }
    printf("%d\n", sum);
    while (head != 0) { struct Node* nx = head->next; free(head); head = nx; }
    return 0;
}`,
		"guards-taken": `
int check(int offset, int len, int size) {
    if (offset + len > size || offset < 0 || len < 0) { return -1; }
    return offset + len;
}
int main() {
    printf("%d %d %d\n", check(3, 4, 10), check(-1, 4, 10), check(3, 4, 5));
    return 0;
}`,
		"statics-one-call-per-stmt": `
static char buffer[16];
char* fmt(int v) {
    buffer[0] = (char)(48 + v);
    buffer[1] = '\0';
    return buffer;
}
int main() {
    printf("%s ", fmt(1));
    printf("%s\n", fmt(2));
    return 0;
}`,
	}
	inputs := [][]byte{nil, []byte("a"), []byte("hello world, this is input"), {0, 1, 2, 250, 251, 252}}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			for _, in := range inputs {
				requireStable(t, src, in)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Divergence of unstable code (one test per UB axis)

func TestUnstableSignedOverflowCheckElided(t *testing.T) {
	// Paper Listing 1: the guard `offset + len < offset` is folded
	// away by aggressive implementations once len >= 0 is established.
	src := `
int dump_data(int offset, int len, int size) {
    if (offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -2; }
    return offset + len;
}
int main() {
    printf("%d\n", dump_data(2147483647 - 100, 101, 2147483647));
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	if len(outs) < 2 {
		t.Fatal("expected the overflow check to be unstable")
	}
}

func TestUnstableUninitializedLocal(t *testing.T) {
	src := `
int main() {
    int x;
    int y;
    y = 1;
    printf("%d %d\n", x, y);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableEvalOrder(t *testing.T) {
	// Paper Listing 3: two calls sharing a static buffer as arguments
	// of the same printf.
	src := `
static char buffer[8];
char* get_str(int v) {
    buffer[0] = (char)(48 + v);
    buffer[1] = '\0';
    return buffer;
}
int main() {
    printf("who-is %s tell %s\n", get_str(1), get_str(2));
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	// gcc evaluates right-to-left (both print "1"), clang left-to-right
	// (both print "2").
	sawGcc, sawClang := false, false
	for out, impls := range outs {
		if strings.Contains(out, "who-is 1 tell 1") {
			sawGcc = true
		}
		if strings.Contains(out, "who-is 2 tell 2") {
			sawClang = true
		}
		_ = impls
	}
	if !sawGcc || !sawClang {
		t.Fatalf("expected both orderings, got %v", keys(outs))
	}
}

func TestUnstablePointerComparison(t *testing.T) {
	// Paper Listing 2: relational comparison of pointers to different
	// objects.
	src := `
int main() {
    char obj_a[8];
    long gap;
    char obj_b[24];
    obj_a[0] = 1; obj_b[0] = 2; gap = 0;
    if (obj_b <= obj_a) { printf("b-first %ld\n", gap); } else { printf("a-first %ld\n", gap); }
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableDivByZero(t *testing.T) {
	src := `
int main() {
    int d = 0;
    int r = 100 / d;
    printf("%d\n", r);
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	sawTrap := false
	for out := range outs {
		if strings.Contains(out, "SIGFPE") {
			sawTrap = true
		}
	}
	if !sawTrap {
		t.Fatal("expected at least one implementation to trap on div-by-zero")
	}
}

func TestUnstableShiftOOB(t *testing.T) {
	src := `
int main() {
    int x = 1;
    int s = 33;
    printf("%d\n", x << s);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableWidenedMultiplication(t *testing.T) {
	// The paper's IntError example: long = int*int with overflow —
	// some implementations compute in 64-bit.
	src := `
int main() {
    int a = 100000;
    int b = 100000;
    long x = a * b;
    printf("%ld\n", x);
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	saw32, saw64 := false, false
	for out := range outs {
		if strings.Contains(out, "1410065408") {
			saw32 = true // wrapped 32-bit result
		}
		if strings.Contains(out, "10000000000") {
			saw64 = true // widened 64-bit result
		}
	}
	if !saw32 || !saw64 {
		t.Fatalf("expected both 32-bit and 64-bit results, got %v", keys(outs))
	}
}

func TestUnstableNullCheckAfterDeref(t *testing.T) {
	src := `
int get(int* p) {
    int v = *p;
    if (p == 0) { return -1; }
    return v;
}
int main() {
    int* p = 0;
    printf("%d\n", get(p));
    return 0;
}`
	// All implementations crash here (the deref executes first), so
	// instead use the dead-load variant where optimizers drop the read.
	src2 := `
int main() {
    int* p = 0;
    *p;
    printf("ok\n");
    return 0;
}`
	requireUnstable(t, src2, nil)
	_ = src
}

func TestUnstableUseAfterFree(t *testing.T) {
	src := `
int main() {
    int* p = (int*)malloc(16L);
    p[0] = 1234;
    free(p);
    int* q = (int*)malloc(16L);
    q[0] = 9999;
    printf("%d\n", p[0]);
    free(q);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableDoubleFree(t *testing.T) {
	src := `
int main() {
    char* p = (char*)malloc(8L);
    free(p);
    free(p);
    char* q = (char*)malloc(8L);
    printf("%d\n", q != 0);
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	sawAbort := false
	for out := range outs {
		if strings.Contains(out, "SIGABRT") {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Fatal("expected glibc-style abort in at least one implementation")
	}
}

func TestUnstableStackOOBRead(t *testing.T) {
	src := `
int main() {
    int a[4];
    int marker = 777;
    for (int i = 0; i < 4; i++) { a[i] = i; }
    printf("%d %d\n", a[5], marker);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableLineMacro(t *testing.T) {
	src := `
int main() {
    printf("%d\n",
        __LINE__);
    return 0;
}`
	outs := requireUnstable(t, src, nil)
	if len(outs) != 2 {
		t.Fatalf("expected exactly two interpretations, got %d", len(outs))
	}
}

func TestUnstablePointerSubtraction(t *testing.T) {
	// CWE-469: pointer subtraction across different objects.
	src := `
int main() {
    char a[16];
    char b[16];
    a[0] = 0; b[0] = 0;
    long d = &b[0] - &a[0];
    printf("%ld\n", d);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableMemcpyOverlap(t *testing.T) {
	src := `
int main() {
    char buf[16];
    for (int i = 0; i < 16; i++) { buf[i] = (char)(65 + i); }
    memcpy(buf + 2, buf, 8L);
    for (int i = 0; i < 12; i++) { printf("%c", buf[i]); }
    printf("\n");
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableMissingReturn(t *testing.T) {
	src := `
int pick(int v) {
    if (v > 0) { return v; }
}
int main() {
    printf("%d\n", pick(-5));
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableFloatContraction(t *testing.T) {
	// a*b+c contracted to FMA changes the rounding of the last bit.
	src := `
int main() {
    double a = 0.1;
    double b = 10.0;
    double c = -1.0;
    double r = a * b + c;
    printf("%.20f\n", r * 1000000000000000000.0);
    return 0;
}`
	requireUnstable(t, src, nil)
}

func TestUnstableArityMismatch(t *testing.T) {
	// CWE-685: too few arguments; the missing parameter reads stack
	// garbage, which differs per layout.
	src := `
int combine(int a, int b) { return a * 1000 + b; }
int main() {
    printf("%d\n", combine(7));
    return 0;
}`
	requireUnstable(t, src, nil)
}

// ---------------------------------------------------------------------------
// Timeout / step limit

func TestStepLimitIsTimeout(t *testing.T) {
	src := `int main() { while (1) { } return 0; }`
	prog := parser.MustParse(src)
	info := sema.MustCheck(prog)
	bin := compiler.MustCompile(info, compiler.Config{Family: compiler.Clang, Opt: compiler.O0})
	m := vm.New(bin, vm.Options{StepLimit: 10_000})
	res := m.Run(nil)
	if res.Exit != vm.StepLimit {
		t.Fatalf("exit = %v", res.Exit)
	}
	// A larger one-off budget still times out (infinite loop).
	res = m.RunSharedWithLimit(nil, 100_000).Clone()
	if res.Exit != vm.StepLimit {
		t.Fatalf("rerun exit = %v", res.Exit)
	}
}

func TestMachineResetIsClean(t *testing.T) {
	// Fork-server behaviour: consecutive runs see identical state.
	src := `
int calls = 0;
int main() {
    calls++;
    int x;
    printf("%d %d\n", calls, x);
    return 0;
}`
	prog := parser.MustParse(src)
	info := sema.MustCheck(prog)
	bin := compiler.MustCompile(info, compiler.Config{Family: compiler.GCC, Opt: compiler.O2})
	m := vm.New(bin, vm.Options{})
	r1 := m.Run(nil)
	r2 := m.Run(nil)
	if string(r1.Stdout) != string(r2.Stdout) {
		t.Fatalf("runs differ: %q vs %q", r1.Stdout, r2.Stdout)
	}
}

func TestSegfaultOnWildPointer(t *testing.T) {
	res := run(t, `
int main() {
    long* p = (long*)99999999L;
    *p = 1;
    return 0;
}`, nil)
	if res.Exit != vm.SigSegv {
		t.Fatalf("exit = %v", res.Exit)
	}
}

func TestWriteToRodataFaults(t *testing.T) {
	res := run(t, `
int main() {
    char* s = "const";
    s[0] = 'X';
    return 0;
}`, nil)
	if res.Exit != vm.SigSegv {
		t.Fatalf("exit = %v", res.Exit)
	}
}

func keys(m map[string][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
