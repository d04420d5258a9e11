// Package jsonread is a strict, single-pass JSON reader over a document
// held in memory, for callers that know the schema they are decoding.
// It exists for the model file (internal/napel's envelope around
// internal/ml/rf's forests), where encoding/json's reflection and its
// repeated scans of the forest bytes dominated load time, and for
// napel-serve's request decoder, which reads every predict body
// straight into a feature vector.
//
// Each value is read once, left to right, by the method for the type
// the caller expects, and Floats and Ints read a whole array of numbers
// into a slice. Numbers convert to exactly what encoding/json converts
// them to, bit for bit, in the same pass that checks their grammar: the
// scan gathers up to 19 significant digits into an integer mantissa and
// a decimal exponent, and when the value is exact in a float64 multiply
// or divide (Clinger's fast path) or in 128-bit integer arithmetic
// (exponents within ±27), it is rounded there; longer mantissas, larger
// exponents and every malformed literal go through strconv.ParseFloat
// and strconv.ParseInt as before. The reader accepts a subset of what
// encoding/json accepts, and for a document both accept it yields the
// same values:
//
//   - Fields matches object keys to field names the way encoding/json
//     matches struct fields (exactly, else case-insensitively under
//     Unicode simple folding), skips unknown keys after checking they
//     hold well-formed JSON, and rejects a key naming a field already
//     read, where encoding/json lets the last one win;
//   - Float and Int reject null, which encoding/json silently skips;
//   - End rejects anything but whitespace after the top-level value;
//   - nesting deeper than 10 000 is rejected, as encoding/json does.
package jsonread

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Reader reads one JSON document from a byte slice. It is not safe for
// concurrent use.
type Reader struct {
	data  []byte
	pos   int
	depth int
	buf   []byte // decoded form of the last string that held escapes
}

// New returns a Reader positioned at the start of data.
func New(data []byte) *Reader { return &Reader{data: data} }

// SyntaxError is a document that is malformed or does not hold what the
// caller asked for at Offset.
type SyntaxError struct {
	Offset int
	Msg    string // what is wrong, without the offset
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("offset %d: %s", e.Offset, e.Msg) }

func (r *Reader) errorf(format string, args ...any) error {
	return &SyntaxError{Offset: r.pos, Msg: fmt.Sprintf(format, args...)}
}

// ws skips insignificant whitespace.
func (r *Reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) peek() byte {
	r.ws()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// consume skips whitespace and advances past c if it comes next.
func (r *Reader) consume(c byte) bool {
	if r.peek() == c {
		r.pos++
		return true
	}
	return false
}

func (r *Reader) describeNext() string {
	if c := r.peek(); c != 0 {
		return strconv.QuoteRune(rune(c))
	}
	return "end of input"
}

// open consumes the opening bracket c of an object or array.
func (r *Reader) open(c byte, what string) error {
	if !r.consume(c) {
		return r.errorf("expected %s, found %s", what, r.describeNext())
	}
	r.depth++
	if r.depth > maxDepth {
		return r.errorf("nesting deeper than %d", maxDepth)
	}
	return nil
}

// Object reads an object, calling member once per key with the key's
// decoded bytes; member must read exactly one value. The key is only
// valid until member reads a string.
func (r *Reader) Object(member func(key []byte) error) error {
	if err := r.open('{', "an object"); err != nil {
		return err
	}
	if r.consume('}') {
		r.depth--
		return nil
	}
	for {
		if r.peek() != '"' {
			return r.errorf("expected an object key, found %s", r.describeNext())
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if !r.consume(':') {
			return r.errorf("expected ':' after an object key, found %s", r.describeNext())
		}
		if err := member(key); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume('}') {
			r.depth--
			return nil
		}
		return r.errorf("expected ',' or '}' in an object, found %s", r.describeNext())
	}
}

// Fields reads an object whose members are the named fields, calling
// field with the matching entry of names; field must read exactly one
// value. Unknown keys are skipped, and a second key for the same field
// is an error. names may hold at most 64 entries.
func (r *Reader) Fields(names []string, field func(name string) error) error {
	var seen uint64
	return r.Object(func(key []byte) error {
		for i, name := range names {
			if !bytes.EqualFold(key, []byte(name)) {
				continue
			}
			if seen&(1<<i) != 0 {
				return r.errorf("duplicate key for field %q", name)
			}
			seen |= 1 << i
			return field(name)
		}
		return r.Skip()
	})
}

// Array reads an array, calling elem once per element; elem must read
// exactly one value.
func (r *Reader) Array(elem func() error) error {
	more, err := r.openArray()
	for more && err == nil {
		if err = elem(); err == nil {
			more, err = r.more()
		}
	}
	return err
}

// Floats reads an array of numbers, appending each to dst as Float
// reads it. It accepts, and fails, exactly as Array calling Float per
// element does, without a call per element; dst grows only if it lacks
// the capacity.
func (r *Reader) Floats(dst []float64) ([]float64, error) {
	more, err := r.openArray()
	for more && err == nil {
		var v float64
		if v, err = r.Float(); err == nil {
			dst = append(dst, v)
			more, err = r.more()
		}
	}
	return dst, err
}

// Ints is Floats for Int(bitSize).
func (r *Reader) Ints(dst []int64, bitSize int) ([]int64, error) {
	more, err := r.openArray()
	for more && err == nil {
		var v int64
		if v, err = r.Int(bitSize); err == nil {
			dst = append(dst, v)
			more, err = r.more()
		}
	}
	return dst, err
}

// openArray consumes the '[' of an array, and its ']' too if it is
// empty; more reports whether an element follows.
func (r *Reader) openArray() (more bool, err error) {
	if err := r.open('[', "an array"); err != nil {
		return false, err
	}
	if r.consume(']') {
		r.depth--
		return false, nil
	}
	return true, nil
}

// more consumes what follows an array element: a ',', and then more is
// true, or the closing ']'.
func (r *Reader) more() (more bool, err error) {
	if r.consume(',') {
		return true, nil
	}
	if r.consume(']') {
		r.depth--
		return false, nil
	}
	return false, r.errorf("expected ',' or ']' in an array, found %s", r.describeNext())
}

// ArrayLen returns the number of elements of the array of numbers at the
// read position without consuming anything, so a caller can allocate
// the destination once. It is exact for a well-formed array of numbers
// and only a hint otherwise: callers must still bound their writes by
// what Array delivers.
func (r *Reader) ArrayLen() int {
	if r.peek() != '[' {
		return 0
	}
	n, empty := 1, true
	for _, c := range r.data[r.pos+1:] {
		switch c {
		case ',':
			n++
		case ' ', '\t', '\n', '\r':
		case ']':
			if empty {
				return 0
			}
			return n
		default:
			if c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && (c < '0' || c > '9') {
				return n
			}
			empty = false
		}
	}
	return n
}

// Null consumes a null literal if one comes next and reports whether it
// did. encoding/json decodes null into a nil slice or map, so callers
// reading those call Null first.
func (r *Reader) Null() bool {
	if r.peek() == 'n' && bytes.HasPrefix(r.data[r.pos:], []byte("null")) {
		r.pos += len("null")
		return true
	}
	return false
}

// number consumes a number literal, checking the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (r *Reader) number() ([]byte, error) {
	r.ws()
	d, start := r.data, r.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, r.errorf("expected a number, found %s", r.describeNext())
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			r.pos = j
			return nil, r.errorf("malformed number")
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			r.pos = j
			return nil, r.errorf("malformed number")
		}
		i = j
	}
	r.pos = i
	return d[start:i], nil
}

// digits returns the index of the first non-digit in d at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Float reads a number as a float64.
func (r *Reader) Float() (float64, error) {
	r.ws()
	start := r.pos
	if mant, exp, neg, _, ok := r.scan(); ok {
		if v, ok := exactFloat(mant, exp, neg); ok {
			return v, nil
		}
		r.pos = start
	}
	lit, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, r.errorf("number %s does not fit a float64", lit)
	}
	return v, nil
}

// Int reads a number as an integer of the given bit size: a fraction
// or exponent is an error, as is a value out of range.
func (r *Reader) Int(bitSize int) (int64, error) {
	r.ws()
	start := r.pos
	if mant, _, neg, point, ok := r.scan(); ok && !point {
		// At most 19 digits: mant is the literal's magnitude exactly.
		if !neg && mant <= math.MaxInt64 || neg && mant <= 1<<63 {
			v := int64(mant)
			if neg {
				v = -v // 1<<63 wraps to math.MinInt64, which it is
			}
			if fitsInt(v, bitSize) {
				return v, nil
			}
		}
	}
	r.pos = start
	lit, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		return 0, r.errorf("number %s is not an int%d", lit, bitSize)
	}
	return v, nil
}

// fitsInt reports whether v is in range for a signed integer of bitSize
// bits.
func fitsInt(v int64, bitSize int) bool {
	if bitSize >= 64 {
		return true
	}
	shift := 64 - bitSize
	return v<<shift>>shift == v
}

// maxDigits is how many significant digits scan gathers: 10^19-1, the
// largest 19-digit mantissa, fits a uint64, and 10^20-1 does not.
const maxDigits = 19

// scan reads the number literal at the read position, converting its
// digits as it checks them: the literal's value is ±mant·10^exp exactly,
// and point reports a fraction or exponent part. ok is false, with
// nothing consumed, for a literal of more than maxDigits significant
// digits (leading zeros of a fraction do not count) and for anything
// number rejects, which then reads the literal again and reports it.
func (r *Reader) scan() (mant uint64, exp int, neg, point, ok bool) {
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		neg = true
		i++
	}
	nd := 0 // digits gathered into mant
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		j := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(d[i]-'0')
		}
		if i == j {
			return 0, 0, false, false, false
		}
		nd = i - j
	}
	if i < len(d) && d[i] == '.' {
		i++
		j := i
		if mant == 0 {
			for i < len(d) && d[i] == '0' {
				i++
			}
		}
		k := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(d[i]-'0')
		}
		if i == j {
			return 0, 0, false, false, false
		}
		nd, exp, point = nd+i-k, j-i, true
	}
	if nd > maxDigits {
		return 0, 0, false, false, false
	}
	if i < len(d) && d[i]|0x20 == 'e' {
		i++
		eneg := i < len(d) && d[i] == '-'
		if i < len(d) && (d[i] == '+' || eneg) {
			i++
		}
		j := i
		e := 0
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			if e < 1<<20 {
				e = e*10 + int(d[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false, false, false
		}
		if eneg {
			e = -e
		}
		exp, point = exp+e, true
	}
	r.pos = i
	return mant, exp, neg, point, true
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow5 holds the powers of five a uint64 holds: 5^27 < 2^63 < 5^28.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 5
	}
	return p
}()

// exactFloat returns ±mant·10^exp correctly rounded, as
// strconv.ParseFloat rounds it, when it can do so exactly without
// strconv; ok is false otherwise. A mantissa below 2^53 and a power of
// ten up to 10^22 are both exact float64s, so one multiply or divide
// rounds the value once (Clinger's fast path). Otherwise, for |exp| up
// to 27, the value is mant·5^exp·2^exp, whose integer part is exact in
// 128 bits, or (mant·2^s/5^k)·2^(-s-k) with k = -exp, whose quotient
// carries 63 or 64 significant bits and whose remainder says whether
// anything is left below them; round then rounds either to 53 bits.
// Neither path can leave the normal float64 range.
func exactFloat(mant uint64, exp int, neg bool) (float64, bool) {
	var v float64
	switch {
	case mant == 0:
	case mant < 1<<53 && -len(pow10) < exp && exp < len(pow10):
		v = float64(mant)
		if exp >= 0 {
			v *= pow10[exp]
		} else {
			v /= pow10[-exp]
		}
	case 0 <= exp && exp < len(pow5):
		hi, lo := bits.Mul64(mant, pow5[exp])
		v = round(hi, lo, false, exp)
	case -len(pow5) < exp && exp < 0:
		p := pow5[-exp]
		// Shift mant so that the quotient fits 64 bits (hi < p) and has
		// at least 63: 2^62 < mant·2^s/p < 2^64.
		s := 63 + bits.Len64(p) - bits.Len64(mant)
		var hi, lo uint64
		if s >= 64 {
			hi = mant << (s - 64)
		} else {
			hi, lo = mant>>(64-s), mant<<s
		}
		q, rem := bits.Div64(hi, lo, p)
		v = round(0, q, rem != 0, exp-s)
	default:
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// round returns (hi·2^64 + lo + f)·2^exp2 rounded to the nearest
// float64, ties to even, where 0 < f < 1 if sticky and f = 0 otherwise.
// The value must be nonzero and within the normal float64 range.
func round(hi, lo uint64, sticky bool, exp2 int) float64 {
	// Move the top 64 significant bits into x, gathering what falls
	// below them into sticky.
	var x uint64
	if hi != 0 {
		n := bits.LeadingZeros64(hi)
		x = hi<<n | lo>>(64-n)
		sticky = sticky || lo<<n != 0
		exp2 += 64 - n
	} else {
		n := bits.LeadingZeros64(lo)
		x = lo << n
		exp2 -= n
	}
	// Keep 53 of x's 64 bits: the 11 below decide the rounding.
	m := x >> 11
	half := x&(1<<10) != 0
	if half && (x&(1<<10-1) != 0 || sticky || m&1 != 0) {
		m++
		if m == 1<<53 {
			m >>= 1
			exp2++
		}
	}
	// v = m·2^(exp2+11), and m's leading bit is the implicit one.
	return math.Float64frombits(uint64(exp2+11+52+1023)<<52 | m&(1<<52-1))
}

// Uint reads a number as an unsigned integer of the given bit size: a
// sign, fraction or exponent is an error, as is a value out of range.
func (r *Reader) Uint(bitSize int) (uint64, error) {
	lit, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(lit), 10, bitSize)
	if err != nil {
		return 0, r.errorf("number %s is not a uint%d", lit, bitSize)
	}
	return v, nil
}

// StringBytes reads a string and returns its decoded bytes, valid only
// until the next string is read.
func (r *Reader) StringBytes() ([]byte, error) {
	if r.peek() != '"' {
		return nil, r.errorf("expected a string, found %s", r.describeNext())
	}
	return r.str()
}

// String reads a string.
func (r *Reader) String() (string, error) {
	b, err := r.StringBytes()
	return string(b), err
}

// str consumes the string starting at the read position (a '"'). The
// result aliases the input when the string holds no escapes, control
// characters or non-ASCII bytes; otherwise it is decoded into r.buf,
// replacing invalid UTF-8 and unpaired surrogates with U+FFFD exactly
// as encoding/json does.
func (r *Reader) str() ([]byte, error) {
	d := r.data
	start := r.pos + 1
	i := start
	for i < len(d) {
		if i+8 <= len(d) && plainString(binary.LittleEndian.Uint64(d[i:])) {
			i += 8
			continue
		}
		c := d[i]
		if c == '"' {
			r.pos = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	b := append(r.buf[:0], d[start:i]...)
	for {
		if i >= len(d) {
			r.pos = i
			return nil, r.errorf("unterminated string")
		}
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			r.buf = b
			return b, nil
		case c < ' ':
			r.pos = i
			return nil, r.errorf("control character %#x in string", c)
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			rr, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		case i+1 >= len(d):
			r.pos = i
			return nil, r.errorf("unterminated string")
		default:
			esc := d[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i:])
				if rr < 0 {
					r.pos = i
					return nil, r.errorf("malformed \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(rr) {
					// A pair's second half is consumed only if it
					// completes the pair.
					dec := unicode.ReplacementChar
					if len(d) >= i+6 && d[i] == '\\' && d[i+1] == 'u' {
						dec = utf16.DecodeRune(rr, hex4(d[i+2:]))
					}
					if dec != unicode.ReplacementChar {
						i += 6
					}
					rr = dec
				}
				b = utf8.AppendRune(b, rr)
			default:
				r.pos = i - 1
				return nil, r.errorf("invalid escape '\\%c'", esc)
			}
		}
	}
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// Skip consumes one value of any type, checking that it is well-formed.
func (r *Reader) Skip() error {
	switch c := r.peek(); c {
	case '{':
		return r.Object(func([]byte) error { return r.Skip() })
	case '[':
		return r.Array(r.Skip)
	case '"':
		_, err := r.str()
		return err
	case 't', 'f', 'n':
		for _, lit := range []string{"true", "false", "null"} {
			if bytes.HasPrefix(r.data[r.pos:], []byte(lit)) {
				r.pos += len(lit)
				return nil
			}
		}
		return r.errorf("invalid literal")
	default:
		_, err := r.number()
		return err
	}
}

// plainString reports whether none of x's 8 bytes ends a run of string
// bytes str copies as they are: no '"', '\\', control byte or non-ASCII
// byte. A version 2 model file is mostly base64 strings, and testing 8
// bytes at once keeps reading them off its load's critical path.
func plainString(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	// (v - ones) &^ v has a high bit set iff some byte of v is 0, and
	// (x - ones*' ') &^ x iff some byte of x is below ' '; x's own high
	// bits mark non-ASCII bytes.
	quote, backslash := x^ones*'"', x^ones*'\\'
	stop := (quote-ones)&^quote | (backslash-ones)&^backslash | (x-ones*' ')&^x | x
	return stop&highs == 0
}

// Offset returns the offset just past the value last read, before any
// whitespace that follows it.
func (r *Reader) Offset() int { return r.pos }

// End checks that only whitespace follows the value just read.
func (r *Reader) End() error {
	if r.peek() != 0 || r.pos < len(r.data) {
		return r.errorf("unexpected data after the top-level value")
	}
	return nil
}
