package vm

import (
	"bytes"
	"math/bits"

	"compdiff/internal/hash"
	"compdiff/internal/ir"
)

// SanMode selects sanitizer instrumentation for a machine.
type SanMode int

const (
	SanNone SanMode = iota
	SanASan
	SanUBSan
	SanMSan
)

// String names the mode.
func (m SanMode) String() string {
	switch m {
	case SanASan:
		return "asan"
	case SanUBSan:
		return "ubsan"
	case SanMSan:
		return "msan"
	default:
		return "none"
	}
}

// Options configures a Machine.
type Options struct {
	// StepLimit bounds executed instructions per run (timeout analog).
	// Zero means DefaultStepLimit.
	StepLimit int64
	// MaxOutput caps each captured stream in bytes. Zero means 256 KiB.
	MaxOutput int
	// San selects sanitizer instrumentation.
	San SanMode
	// Coverage enables the AFL-style edge bitmap (for instrumented
	// binaries).
	Coverage bool
	// TimeNow supplies the wall clock for the time_now builtin. The
	// default derives a value from the binary's personality and a run
	// counter — deliberately unstable across implementations and runs,
	// like a real clock (RQ5 material). Tests may pin it.
	TimeNow func(runSeq int64, call int) int64

	// TraceLines records the sequence of executed source lines in
	// Result.Trace (consecutive duplicates collapsed), the raw
	// material for trace-diff fault localization (paper §5). Bounded
	// by MaxTrace (default 1<<16 entries).
	TraceLines bool
	MaxTrace   int

	// Reference forces the simple per-instruction step() interpreter
	// instead of the batched fast loop. The two loops must be
	// observationally identical; the differential self-test runs every
	// corpus program through both and compares Results field by field —
	// the repo's own differential-testing medicine applied to its VM.
	Reference bool
}

// DefaultStepLimit is the per-run instruction budget.
const DefaultStepLimit = 4_000_000

// CovMapSize is the coverage bitmap size (AFL's classic 64 KiB).
const CovMapSize = 1 << 16

// Touched-word summary of the coverage bitmap: bit w of the summary
// (word w>>6, bit w&63) is set once any edge counter in bytes
// [8w, 8w+8) of the bitmap is bumped. A run touches a few hundred
// bytes of the 64 KiB map, so reset and the fuzzer's bitmap walkers
// (fuzz.Classify and friends) visit only the marked words.
//
// The invariant: every non-zero byte of Coverage() lies in a marked
// word. A marked word may still be all zero (a counter that wrapped
// 255 -> 0), which every walker skips. Callers may rewrite coverage
// bytes in place but must not make an unmarked word non-zero.
const CovWordsLen = CovMapSize / 8 / 64

// Dirty-page tracking: writes set a bit per touched page, and reset
// restores only those pages instead of the whole ir.MemSize span — the
// fork-server loop then pays for the memory a run actually used, not
// the address range it straddled.
//
// A page's initial contents come from one of three sources, so no
// machine keeps a full-size copy of memory it can recompute. Pages
// below ir.NullTop are zero. The rodata and globals pages come from
// small per-machine images of just those pages. Every other page holds
// the implementation's fill pattern, which is 64-byte periodic from
// the page-aligned ir.NullTop, so one pattern page serves them all.
const (
	// 256-byte pages: typical runs dirty a few stack slots, one
	// globals region, and the input buffer, so fine pages keep the
	// fork-server reset's copy traffic proportional to what actually
	// changed rather than rounding every touched byte up to a big
	// page. The bitmap stays small and a one-word summary (dirtySum)
	// lets reset skip straight to the dirty words.
	pageShift = 8
	pageSize  = 1 << pageShift
	numPages  = ir.MemSize >> pageShift
)

// dirtySum carries one bit per word of the dirty bitmap, so the whole
// bitmap must fit in 64 words; this fails to compile if pageShift
// shrinks enough to break that.
const _ = uint64(64 - numPages/64)

// slot is one operand-stack entry: the 64-bit value word interleaved
// with its MSan taint bit, so pushes and pops touch one cache line and
// one slice instead of two.
type slot struct {
	v uint64
	t bool
}

// Machine executes one compiled binary. It plays the role of the
// AFL++ forkserver: the binary is loaded once, and each Run restores
// the pages the previous run dirtied instead of re-launching.
//
// A Machine is single-goroutine (all run state lives on it); parallel
// execution layers (core's worker pool, difffuzz's shards) give each
// worker its own machine via per-implementation free lists.
type Machine struct {
	prog *ir.Program
	opts Options
	prof ir.Profile

	mem []byte

	// Page-restore sources (see the dirty-page comment): one page of
	// the fill pattern, and page-rounded images of the rodata and
	// globals pages, based at ir.RodataBase and ir.GlobalsBase.
	pattern    [pageSize]byte
	rodataImg  []byte
	globalsImg []byte

	// Sanitizer shadow state.
	asanShadow []byte // 0 ok, else poison kind
	msanInit   []byte // 1 = initialized

	cov      []byte
	covWords []uint64 // touched-word summary of cov (see CovWordsLen)
	edgeHash []uint16

	// Run state.
	input   []byte
	stdout  []byte
	stderr  []byte
	steps   int64
	limit   int64
	runSeq  int64
	timeCnt int

	// Operand and temporary stacks: preallocated, reused across runs,
	// addressed by explicit stack pointers (sp/tsp) instead of
	// append/truncate pairs.
	ops   []slot
	sp    int
	temps []slot
	tsp   int

	frames []frame

	// Stack segment allocation.
	stackLow, stackHigh uint64

	heap heapState

	halt    bool
	exit    ExitKind
	code    int32
	san     *SanReport
	prevLoc uint16

	// Dirty-page bitmap: bit p set means page p of mem (and the shadow
	// planes) may differ from its initial contents. reset() restores
	// exactly these pages. dirtySum summarizes the bitmap — bit w set
	// iff dirty[w] != 0 — so reset skips clean words without loading
	// them.
	dirty    [numPages / 64]uint64
	dirtySum uint64

	// Line trace (TraceLines mode).
	trace     []int32
	lastTrace int32

	// res is the machine-owned Result that RunShared hands out; its
	// byte slices alias the machine's output buffers.
	res Result

	// Scratch buffers reused by the printf builtin, and the
	// direct-mapped compiled-format plan cache (see doPrintf).
	fmtBuf     []byte
	strBuf     []byte
	fmtCache   [1 << fmtCacheBits]fmtCacheEnt
	fmtScratch []fmtOp
}

// markDirty records that [addr, addr+size) may have been written.
func (m *Machine) markDirty(addr, size uint64) {
	if size == 0 {
		return
	}
	p0 := addr >> pageShift
	p1 := (addr + size - 1) >> pageShift
	if p1 >= numPages {
		p1 = numPages - 1
	}
	for p := p0; p <= p1; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
		m.dirtySum |= 1 << (p >> 6)
	}
}

type frame struct {
	fn   *ir.Func
	base uint64
	pc   int
}

// New loads prog into a fresh machine.
func New(prog *ir.Program, opts Options) *Machine {
	if opts.StepLimit <= 0 {
		opts.StepLimit = DefaultStepLimit
	}
	if opts.MaxOutput <= 0 {
		opts.MaxOutput = 256 << 10
	}
	if opts.TraceLines && opts.MaxTrace <= 0 {
		opts.MaxTrace = 1 << 16
	}
	m := &Machine{prog: prog, opts: opts, prof: prog.Profile}
	m.buildImages()
	// bytes.Repeat skips zeroing memory it is about to overwrite.
	m.mem = bytes.Repeat(m.pattern[:], numPages)
	clear(m.mem[:ir.NullTop])
	copy(m.mem[ir.RodataBase:], m.rodataImg)
	copy(m.mem[ir.GlobalsBase:], m.globalsImg)
	if opts.San == SanASan {
		m.asanShadow = make([]byte, ir.MemSize)
	}
	if opts.San == SanMSan {
		m.msanInit = make([]byte, ir.MemSize)
		end := m.msanInitEnd()
		for a := uint64(ir.RodataBase); a < end; a += pageSize {
			copy(m.msanInit[a:end], initPage[:])
		}
	}
	m.ops = make([]slot, 256)
	m.temps = make([]slot, 64)
	m.frames = make([]frame, 0, 64)
	if opts.Coverage {
		m.cov = make([]byte, CovMapSize)
		m.covWords = make([]uint64, CovWordsLen)
		n := prog.NumEdges
		if n == 0 {
			n = 1
		}
		m.edgeHash = make([]uint16, n)
		for i := range m.edgeHash {
			m.edgeHash[i] = uint16(hash.Sum32([]byte{byte(i), byte(i >> 8), byte(i >> 16)}, 0xed9e) & (CovMapSize - 1))
		}
	}
	return m
}

// buildImages derives the page-restore sources: the implementation's
// fill pattern (what "uninitialized" memory contains), the rodata
// pages, and the zeroed+initialized globals pages, each image padded
// with the fill pattern to a whole page.
func (m *Machine) buildImages() {
	k := m.prof.Key
	for i := 0; i < 64; i += 8 {
		k = k*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		for j := 0; j < 8; j++ {
			m.pattern[i+j] = byte(k >> (8 * j))
		}
	}
	for i := 64; i < pageSize; i += 64 {
		copy(m.pattern[i:], m.pattern[:64])
	}

	m.rodataImg = m.segmentImage(len(m.prog.Rodata))
	copy(m.rodataImg, m.prog.Rodata)

	// C guarantees zero-initialization of the data segment.
	m.globalsImg = m.segmentImage(int(m.prog.GlobalsLen))
	clear(m.globalsImg[:m.prog.GlobalsLen])
	for _, gi := range m.prog.GlobalInit {
		copy(m.globalsImg[gi.Offset:], gi.Data)
	}
}

// segmentImage returns the fill pattern for the pages that n bytes of
// a page-aligned segment occupy.
func (m *Machine) segmentImage(n int) []byte {
	return bytes.Repeat(m.pattern[:], (n+pageSize-1)/pageSize)
}

// msanInitEnd bounds the range [ir.RodataBase, msanInitEnd()) that
// MSan treats as initialized at load: rodata and the globals.
func (m *Machine) msanInitEnd() uint64 {
	return ir.GlobalsBase + uint64(m.prog.GlobalsLen)
}

// initPage is a page of MSan "initialized" bytes.
var initPage = func() (p [pageSize]byte) {
	for i := range p {
		p[i] = 1
	}
	return p
}()

// restorePage returns the page at address lo, in mem and in the
// shadow planes, to its initial contents.
func (m *Machine) restorePage(lo uint64) {
	page := m.mem[lo : lo+pageSize]
	switch {
	case lo < ir.NullTop:
		clear(page)
	case lo-ir.RodataBase < uint64(len(m.rodataImg)):
		copy(page, m.rodataImg[lo-ir.RodataBase:])
	case lo-ir.GlobalsBase < uint64(len(m.globalsImg)):
		copy(page, m.globalsImg[lo-ir.GlobalsBase:])
	default:
		copy(page, m.pattern[:])
	}
	if m.asanShadow != nil {
		clear(m.asanShadow[lo : lo+pageSize])
	}
	if m.msanInit != nil {
		shadow := m.msanInit[lo : lo+pageSize]
		n := 0
		if end := m.msanInitEnd(); lo >= ir.RodataBase && lo < end {
			n = copy(shadow[:min(end-lo, pageSize)], initPage[:])
		}
		clear(shadow[n:])
	}
}

// Program returns the loaded binary.
func (m *Machine) Program() *ir.Program { return m.prog }

// Coverage returns the edge bitmap of the last run (nil when coverage
// is disabled).
func (m *Machine) Coverage() []byte { return m.cov }

// CoverageWords returns the touched-word summary of Coverage(): bit
// w&63 of word w>>6 is set when bytes [8w, 8w+8) may be non-zero (nil
// when coverage is disabled). See CovWordsLen for the invariant.
func (m *Machine) CoverageWords() []uint64 { return m.covWords }

// hitEdge counts one traversal of the edge whose instrumentation id is
// id and marks the counter's word in the summary.
func (m *Machine) hitEdge(id int64) {
	loc := m.edgeHash[id]
	i := loc ^ m.prevLoc
	m.cov[i]++
	m.covWords[i>>9] |= 1 << (i >> 3 & 63)
	m.prevLoc = loc >> 1
}

// Run executes the binary on input and returns an independent Result
// the caller may retain.
func (m *Machine) Run(input []byte) *Result {
	return m.runShared(input, m.opts.StepLimit).Clone()
}

// RunWithLimit runs with a one-off step limit (the CompDiff
// partial-timeout re-run policy uses it). The limit applies to this
// run only and never touches the machine's configured options, so a
// temporary budget cannot leak into later runs of a machine reused
// from a free list. Non-positive limits fall back to the configured
// one instead of tripping an instant spurious timeout.
func (m *Machine) RunWithLimit(input []byte, limit int64) *Result {
	if limit <= 0 {
		limit = m.opts.StepLimit
	}
	return m.runShared(input, limit).Clone()
}

// RunShared is the zero-copy fast path: it executes input and returns
// a machine-owned Result whose Stdout/Stderr/Trace slices alias the
// machine's internal buffers. The Result is valid only until the
// machine's next run (or release back to a free list); callers that
// need to retain it must Clone. The differential hot path hashes the
// aliased output via Result.EncodeTo and materializes a Clone only
// when a divergence is actually detected.
func (m *Machine) RunShared(input []byte) *Result {
	return m.runShared(input, m.opts.StepLimit)
}

// RunSharedWithLimit is RunShared with a one-off step limit, with the
// same fallback semantics as RunWithLimit.
func (m *Machine) RunSharedWithLimit(input []byte, limit int64) *Result {
	if limit <= 0 {
		limit = m.opts.StepLimit
	}
	return m.runShared(input, limit)
}

func (m *Machine) runShared(input []byte, limit int64) *Result {
	m.reset(input)
	m.limit = limit
	m.call(m.prog.Main)
	if m.opts.Reference {
		for !m.halt {
			m.step()
		}
	} else {
		m.runLoop()
	}
	// Field-at-a-time writeback: m.res is machine-owned and reused, so
	// assigning a composite literal would copy a temporary for no
	// benefit on the hottest exit path.
	m.res.Exit = m.exit
	m.res.Code = m.code
	m.res.Stdout = m.stdout
	m.res.Stderr = m.stderr
	m.res.Steps = m.steps
	m.res.San = m.san
	m.res.Trace = nil
	if m.opts.TraceLines {
		m.res.Trace = m.trace
	}
	return &m.res
}

func (m *Machine) reset(input []byte) {
	for sum := m.dirtySum; sum != 0; sum &= sum - 1 {
		w := bits.TrailingZeros64(sum)
		word := m.dirty[w]
		m.dirty[w] = 0
		for word != 0 {
			p := uint64(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
			m.restorePage(p << pageShift)
		}
	}
	m.dirtySum = 0
	for w, word := range m.covWords {
		if word == 0 {
			continue
		}
		m.covWords[w] = 0
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			clear(m.cov[i : i+8])
		}
	}
	m.input = input
	m.stdout = m.stdout[:0]
	m.stderr = m.stderr[:0]
	m.steps = 0
	m.limit = m.opts.StepLimit // run() overrides for one-off limits
	m.sp = 0
	m.tsp = 0
	m.frames = m.frames[:0]
	m.stackLow = ir.StackMax
	m.stackHigh = ir.StackBase
	m.heap.reset()
	m.halt = false
	m.exit = Exited
	m.code = 0
	m.san = nil
	m.prevLoc = 0
	m.runSeq++
	m.timeCnt = 0
	m.trace = m.trace[:0]
	m.lastTrace = -1
}

// traceLine records an executed source line (collapsing repeats).
func (m *Machine) traceLine(line int32) {
	if line <= 0 || line == m.lastTrace || len(m.trace) >= m.opts.MaxTrace {
		return
	}
	m.lastTrace = line
	m.trace = append(m.trace, line)
}

// trap ends execution abnormally.
func (m *Machine) trap(kind ExitKind) {
	if m.halt {
		return
	}
	m.halt = true
	m.exit = kind
	switch kind {
	case SigSegv:
		m.writeErr("Segmentation fault (core dumped)\n")
	case SigFpe:
		m.writeErr("Floating point exception (core dumped)\n")
	case Abort:
		m.writeErr("free(): invalid pointer\nAborted (core dumped)\n")
	}
}

// report fires a sanitizer finding and halts.
func (m *Machine) report(tool, kind string, line int32) {
	if m.halt {
		return
	}
	fn := "?"
	if len(m.frames) > 0 {
		fn = m.frames[len(m.frames)-1].fn.Name
	}
	m.san = &SanReport{Tool: tool, Kind: kind, Func: fn, Line: line}
	m.writeErr("==1==ERROR: " + m.san.String() + "\n")
	m.halt = true
	m.exit = SanAbort
}

func (m *Machine) exitNormally(code int32) {
	m.halt = true
	m.exit = Exited
	m.code = code
}

func (m *Machine) writeOut(s string) {
	if len(m.stdout) < m.opts.MaxOutput {
		m.stdout = append(m.stdout, s...)
	}
}

func (m *Machine) writeOutBytes(b []byte) {
	if len(m.stdout) < m.opts.MaxOutput {
		m.stdout = append(m.stdout, b...)
	}
}

func (m *Machine) writeErr(s string) {
	if len(m.stderr) < m.opts.MaxOutput {
		m.stderr = append(m.stderr, s...)
	}
}

// push/pop maintain the operand stack. Values and taint bits live in
// one interleaved slot array; machines without MSan simply carry
// always-false taint bits at no extra slice traffic.
func (m *Machine) push(v uint64) {
	if m.sp == len(m.ops) {
		m.growOps()
	}
	m.ops[m.sp] = slot{v: v}
	m.sp++
}

func (m *Machine) pushT(v uint64, t bool) {
	if m.sp == len(m.ops) {
		m.growOps()
	}
	m.ops[m.sp] = slot{v: v, t: t}
	m.sp++
}

func (m *Machine) pop() uint64 {
	m.sp--
	return m.ops[m.sp].v
}

func (m *Machine) popT() (uint64, bool) {
	m.sp--
	s := m.ops[m.sp]
	return s.v, s.t
}

// growOps doubles the operand stack. The preallocated capacity covers
// ordinary programs; only pathological expression nesting or deep
// zero-frame recursion lands here.
func (m *Machine) growOps() {
	next := make([]slot, len(m.ops)*2)
	copy(next, m.ops)
	m.ops = next
}

func (m *Machine) growTemps() {
	next := make([]slot, len(m.temps)*2)
	copy(next, m.temps)
	m.temps = next
}

// call invokes function fi with no arguments (program entry).
func (m *Machine) call(fi int) {
	m.callS(fi, nil, false)
}

// callS invokes function fi. sl is the popped argument window of the
// operand stack, aliased in place (same zero-copy protocol as
// builtin); rev means the binary pushed right-to-left, so arguments
// read back-to-front. Extra arguments are dropped; missing ones leave
// the parameter slots holding stack garbage (CWE-685 semantics).
func (m *Machine) callS(fi int, sl []slot, rev bool) {
	fn := m.prog.Funcs[fi]
	var base uint64
	if m.prof.StackDown {
		if m.stackLow < uint64(fn.FrameSize)+ir.StackBase {
			m.trap(SigSegv) // stack overflow
			return
		}
		m.stackLow -= uint64(fn.FrameSize)
		base = m.stackLow
	} else {
		base = m.stackHigh
		if base+uint64(fn.FrameSize) > ir.StackMax {
			m.trap(SigSegv)
			return
		}
		m.stackHigh += uint64(fn.FrameSize)
	}

	if m.msanInit != nil {
		// A fresh frame is uninitialized memory.
		m.markDirty(base, uint64(fn.FrameSize))
		for i := base; i < base+uint64(fn.FrameSize); i++ {
			m.msanInit[i] = 0
		}
	}
	if m.asanShadow != nil {
		// Poison everything in the frame that is not a variable slot
		// (the redzones the ASan compile layout inserted).
		m.markDirty(base, uint64(fn.FrameSize))
		for i := base; i < base+uint64(fn.FrameSize); i++ {
			m.asanShadow[i] = shadowStackRZ
		}
		for _, s := range fn.Slots {
			for i := base + uint64(s.Off); i < base+uint64(s.Off+s.Size); i++ {
				m.asanShadow[i] = 0
			}
		}
	}

	for i := 0; i < len(fn.ParamOff) && i < len(sl); i++ {
		addr := base + uint64(fn.ParamOff[i])
		w := paramWidth(fn.ParamKind[i])
		s := sl[i]
		if rev {
			s = sl[len(sl)-1-i]
		}
		v := s.v
		if fn.ParamKind[i] == ir.F32 {
			v = ir.ConvWord(ir.F64, ir.F32, v)
			v = uint64(f32bits(v))
		}
		m.rawStore(addr, w, v)
		if m.msanInit != nil {
			m.markInit(addr, uint64(w), !s.t)
		}
	}
	m.frames = append(m.frames, frame{fn: fn, base: base})
}

func paramWidth(tc ir.TypeCode) int {
	switch tc {
	case ir.I8, ir.U8:
		return 1
	case ir.I32, ir.U32, ir.F32:
		return 4
	default:
		return 8
	}
}

func (m *Machine) ret(hasValue bool) {
	var v uint64
	var t bool
	if hasValue {
		v, t = m.popT()
	}
	fr := m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	if m.prof.StackDown {
		m.stackLow += uint64(fr.fn.FrameSize)
	} else {
		m.stackHigh -= uint64(fr.fn.FrameSize)
	}
	if m.asanShadow != nil {
		base := fr.base
		for i := base; i < base+uint64(fr.fn.FrameSize); i++ {
			m.asanShadow[i] = 0
		}
	}
	if len(m.frames) == 0 {
		// main returned: its value is the exit status.
		code := int32(0)
		if hasValue {
			code = int32(v)
		}
		m.exitNormally(code)
		return
	}
	if hasValue {
		m.pushT(v, t)
	}
}
