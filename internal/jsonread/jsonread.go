// Package jsonread is a strict, single-pass JSON reader over a document
// held in memory, for callers that know the schema they are decoding.
// It exists for the model file (internal/napel's envelope around
// internal/ml/rf's forests), where encoding/json's reflection and its
// repeated scans of the forest bytes dominated load time, and for
// internal/fleet's gate, which splits batched request bodies with
// Elements without decoding them.
//
// Each value is read once, left to right, by the method for the type
// the caller expects; numbers are converted with strconv.ParseFloat and
// strconv.ParseInt exactly as encoding/json converts them. The reader
// accepts a subset of what encoding/json accepts, and for a document
// both accept it yields the same values:
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
	"fmt"
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

func (r *Reader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", r.pos, fmt.Sprintf(format, args...))
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
	if err := r.open('[', "an array"); err != nil {
		return err
	}
	if r.consume(']') {
		r.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.consume(',') {
			continue
		}
		if r.consume(']') {
			r.depth--
			return nil
		}
		return r.errorf("expected ',' or ']' in an array, found %s", r.describeNext())
	}
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

// End checks that only whitespace follows the value just read.
func (r *Reader) End() error {
	if r.peek() != 0 || r.pos < len(r.data) {
		return r.errorf("unexpected data after the top-level value")
	}
	return nil
}

// Elements checks that data is one well-formed JSON array and returns
// the exact bytes of each element, without the whitespace around them:
// what encoding/json yields as []json.RawMessage, aliasing data.
func Elements(data []byte) ([][]byte, error) {
	r := New(data)
	var elems [][]byte
	err := r.Array(func() error {
		r.ws()
		start := r.pos
		if err := r.Skip(); err != nil {
			return err
		}
		elems = append(elems, data[start:r.pos])
		return nil
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, err
	}
	return elems, nil
}
