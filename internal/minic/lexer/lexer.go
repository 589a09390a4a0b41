// Package lexer implements the MiniC scanner: a hand-written,
// single-pass lexer producing the token stream consumed by the parser.
package lexer

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"compdiff/internal/minic/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far, at most
// MaxErrors of them.
func (l *Lexer) Errors() []*Error { return l.errs }

// MaxErrors caps the errors the lexer, and separately the parser,
// record for one source: past it, input that is mostly garbage would
// only grow the joined error text.
const MaxErrors = 25

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	if len(l.errs) < MaxErrors {
		l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans the next token into t.
func (l *Lexer) Next(t *token.Token) {
	*t = token.Token{}
	l.scan(t)
}

// All scans the entire input and returns the token slice ending in
// EOF. Tokens are scanned in place into a slice sized from the source:
// MiniC averages about 2.5 bytes per token and no corpus program packs
// them tighter than 2.2, so len(src)/2 slots hold a whole program
// without regrowing.
func (l *Lexer) All() []token.Token {
	toks := make([]token.Token, 0, len(l.src)/2+1)
	for {
		if len(toks) == cap(toks) {
			toks = slices.Grow(toks, 1)
		}
		toks = toks[:len(toks)+1]
		t := &toks[len(toks)-1]
		l.scan(t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

// scan scans the next token into t, which must be the zero Token.
func (l *Lexer) scan(t *token.Token) {
	l.skipSpaceAndComments()
	t.Pos = l.pos()
	if l.off >= len(l.src) {
		t.Kind = token.EOF
		return
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		l.scanIdent(t)
	case c >= '0' && c <= '9':
		l.scanNumber(t)
	case c == '"':
		l.scanString(t)
	case c == '\'':
		l.scanChar(t)
	case c == '.' && l.peek2() >= '0' && l.peek2() <= '9':
		l.scanNumber(t)
	default:
		l.scanOperator(t)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) scanIdent(t *token.Token) {
	start := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	t.Text = l.src[start:l.off]
	t.Kind = token.Lookup(t.Text)
}

func (l *Lexer) scanNumber(t *token.Token) {
	pos := t.Pos
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			if l.peek2() >= '0' && l.peek2() <= '9' || l.peek2() == '-' || l.peek2() == '+' {
				isFloat = true
				l.advance()
				if l.peek() == '-' || l.peek() == '+' {
					l.advance()
				}
				for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
					l.advance()
				}
			}
		}
	}
	text := l.src[start:l.off]

	if isFloat {
		// An 'f' suffix is accepted and ignored (type comes from context).
		if l.peek() == 'f' || l.peek() == 'F' {
			l.advance()
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			l.errorf(pos, "invalid float literal %q", text)
		}
		t.Kind, t.Text, t.FloatVal = token.FloatLit, text, v
		return
	}

	var unsigned, long bool
	for {
		switch l.peek() {
		case 'u', 'U':
			unsigned = true
			l.advance()
			continue
		case 'l', 'L':
			long = true
			l.advance()
			continue
		}
		break
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(text, "0x"), "0X"), base(text), 64)
	if err != nil {
		l.errorf(pos, "invalid integer literal %q", text)
	}
	t.Kind, t.Text, t.IntVal = token.IntLit, text, int64(v)
	t.Unsigned, t.Long = unsigned, long
}

func base(text string) int {
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		return 16
	}
	return 10
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanString scans a string literal. Text is the raw text between
// the quotes; StrVal shares it unless an escape or a missing closing
// quote makes the decoded value differ.
func (l *Lexer) scanString(t *token.Token) {
	pos := t.Pos
	l.advance() // opening quote
	start := l.off
	var dec []byte // decoded value once it departs from the raw text
	escaped, closed := false, false
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			closed = true
			break
		}
		if c == '\\' {
			if !escaped {
				escaped = true
				dec = append(dec, l.src[start:l.off-1]...)
			}
			if l.off >= len(l.src) {
				l.errorf(pos, "unterminated escape")
				break
			}
			dec = append(dec, l.unescape(pos))
			continue
		}
		if escaped {
			dec = append(dec, c)
		}
	}
	raw := ""
	if start <= len(l.src) && l.off-1 >= start {
		raw = l.src[start : l.off-1]
	}
	t.Kind, t.Text = token.StrLit, raw
	switch {
	case escaped:
		t.StrVal = string(dec)
	case closed:
		t.StrVal = raw
	default:
		t.StrVal = l.src[start:l.off]
	}
}

func (l *Lexer) unescape(pos token.Pos) byte {
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'x':
		var v byte
		for i := 0; i < 2 && l.off < len(l.src) && isHexDigit(l.peek()); i++ {
			d := l.advance()
			v = v<<4 | hexVal(d)
		}
		return v
	}
	l.errorf(pos, "unknown escape \\%c", c)
	return c
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

func (l *Lexer) scanChar(t *token.Token) {
	pos := t.Pos
	t.Kind = token.CharLit
	l.advance() // opening quote
	var v byte
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated char literal")
		return
	}
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			l.errorf(pos, "unterminated char literal")
			return
		}
		v = l.unescape(pos)
	} else {
		v = c
	}
	if l.off < len(l.src) && l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(pos, "unterminated char literal")
	}
	t.Text, t.IntVal = string(v), int64(int8(v))
}

// pick consumes next and returns k2 if it comes next, else returns k1.
func (l *Lexer) pick(next byte, k2, k1 token.Kind) token.Kind {
	if l.peek() == next {
		l.advance()
		return k2
	}
	return k1
}

func (l *Lexer) scanOperator(t *token.Token) {
	t.Kind = l.operator()
	if t.Kind == token.Illegal {
		c := l.src[l.off-1]
		l.errorf(t.Pos, "unexpected character %q", string(c))
		t.Text = string(c)
	}
}

// operator consumes one punctuation or operator token and returns its
// kind, or Illegal after consuming a byte that starts none.
func (l *Lexer) operator() token.Kind {
	c := l.advance()
	switch c {
	case '(':
		return token.LParen
	case ')':
		return token.RParen
	case '{':
		return token.LBrace
	case '}':
		return token.RBrace
	case '[':
		return token.LBracket
	case ']':
		return token.RBracket
	case ';':
		return token.Semicolon
	case ',':
		return token.Comma
	case '.':
		return token.Dot
	case '?':
		return token.Question
	case ':':
		return token.Colon
	case '+':
		if l.peek() == '+' {
			l.advance()
			return token.Inc
		}
		return l.pick('=', token.AddAssign, token.Add)
	case '-':
		if l.peek() == '-' {
			l.advance()
			return token.Dec
		}
		if l.peek() == '>' {
			l.advance()
			return token.Arrow
		}
		return l.pick('=', token.SubAssign, token.Sub)
	case '*':
		return l.pick('=', token.MulAssign, token.Star)
	case '/':
		return l.pick('=', token.DivAssign, token.Div)
	case '%':
		return l.pick('=', token.ModAssign, token.Mod)
	case '=':
		return l.pick('=', token.EqEq, token.Assign)
	case '!':
		return l.pick('=', token.NotEq, token.Not)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return l.pick('=', token.ShlAssign, token.Shl)
		}
		return l.pick('=', token.Le, token.Lt)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return l.pick('=', token.ShrAssign, token.Shr)
		}
		return l.pick('=', token.Ge, token.Gt)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return token.LAnd
		}
		return l.pick('=', token.AndAssign, token.Amp)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.LOr
		}
		return l.pick('=', token.OrAssign, token.Or)
	case '^':
		return l.pick('=', token.XorAssign, token.Xor)
	case '~':
		return token.Tilde
	}
	return token.Illegal
}
