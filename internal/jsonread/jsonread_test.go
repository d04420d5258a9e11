package jsonread

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// whole runs read over data and requires only whitespace after it.
func whole(data string, read func(r *Reader) error) error {
	r := New([]byte(data))
	if err := read(r); err != nil {
		return err
	}
	return r.End()
}

func TestFieldsMatchLikeEncodingJSON(t *testing.T) {
	names := []string{"version", "feature_names"}
	for _, c := range []struct {
		doc  string
		want string // fields visited, in order
		ok   bool
	}{
		{`{"version":1,"feature_names":2}`, "version,feature_names,", true},
		{`{"VERSION":1}`, "version,", true},
		{`{"version":1}`, "version,", true},
		{`{"feature_nameſ":1}`, "feature_names,", true}, // U+017F folds to s
		{`{"other":{"a":[1,"x",null,true,false]},"version":1}`, "version,", true},
		{`{"version":1,"version":1}`, "version,", false},
		{`{"version":1,"Version":1}`, "version,", false},
		{`{"version":1,}`, "version,", false},
		{`{"version" 1}`, "", false},
		{`{"other":[1,]}`, "", false},
		{`{"version":1}x`, "version,", false},
		{` {"version":1} ` + "\n\t\r", "version,", true},
	} {
		got := ""
		err := whole(c.doc, func(r *Reader) error {
			return r.Fields(names, func(name string) error {
				got += name + ","
				_, err := r.Int(64)
				return err
			})
		})
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("%s: visited %q err %v, want %q ok=%v", c.doc, got, err, c.want, c.ok)
		}
	}
}

func TestNumbersRejectWhatEncodingJSONRejects(t *testing.T) {
	for _, bad := range []string{"null", "01", "1.", ".5", "-", "1e", "1e+", "+1", "0x10", "NaN", "1e400", `"1"`} {
		if err := whole(bad, func(r *Reader) error { _, err := r.Float(); return err }); err == nil {
			t.Errorf("Float accepted %s", bad)
		}
	}
	for _, bad := range []string{"1.0", "1e2", "2147483648", "-2147483649", "null"} {
		if err := whole(bad, func(r *Reader) error { _, err := r.Int(32); return err }); err == nil {
			t.Errorf("Int(32) accepted %s", bad)
		}
	}
	var v float64
	if err := whole("-0", func(r *Reader) (err error) { v, err = r.Float(); return }); err != nil || !math.Signbit(v) {
		t.Errorf("-0 decoded as %v (%v)", v, err)
	}
}

func TestNestingLimit(t *testing.T) {
	at := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	if err := whole(at(maxDepth), (*Reader).Skip); err != nil {
		t.Fatalf("depth %d rejected: %v", maxDepth, err)
	}
	if err := whole(at(maxDepth+1), (*Reader).Skip); err == nil {
		t.Fatalf("depth %d accepted", maxDepth+1)
	}
}

func TestArrayLen(t *testing.T) {
	for doc, want := range map[string]int{`[]`: 0, `[ ]`: 0, `[1]`: 1, `[1, -2.5e3 ,0]`: 3, `null`: 0} {
		if got := New([]byte(doc)).ArrayLen(); got != want {
			t.Errorf("ArrayLen(%s) = %d, want %d", doc, got, want)
		}
	}
}

// TestPlainString checks str's 8-byte test against testing each byte,
// for every pair of byte values at several pairs of positions in a word
// of letters, so that a borrow or carry out of one byte cannot hide the
// other.
func TestPlainString(t *testing.T) {
	plain := func(c byte) bool { return c >= ' ' && c < 0x80 && c != '"' && c != '\\' }
	for _, at := range [][2]int{{0, 1}, {3, 4}, {6, 7}, {0, 7}} {
		for a := range 256 {
			for b := range 256 {
				w := []byte("abcdefgh")
				w[at[0]], w[at[1]] = byte(a), byte(b)
				if got, want := plainString(binary.LittleEndian.Uint64(w)), plain(byte(a)) && plain(byte(b)); got != want {
					t.Fatalf("plainString(%q) = %v, want %v", w, got, want)
				}
			}
		}
	}
}

// stringSeeds returns strings with a byte that ends str's plain run, or
// an escape, at every offset mod 8 from the opening quote, alone and as
// an array element.
func stringSeeds() []string {
	var seeds []string
	for _, special := range []string{`"`, `\"`, `\\`, `\u0041`, "\x1f", "é", "\xff"} {
		for off := range 8 {
			s := `"` + strings.Repeat("A", off) + special + strings.Repeat("b", 9) + `"`
			seeds = append(seeds, s, `[`+s+`,1]`)
		}
	}
	return seeds
}

// FuzzReader checks the reader against encoding/json on arbitrary bytes:
// Skip accepts exactly the documents json.Valid accepts, a string or
// number the reader accepts decodes to what encoding/json decodes, and
// Int accepts and rejects what encoding/json does for int64 and int32.
// On a number literal, Float accepts and rejects what strconv.ParseFloat
// does, and agrees with it bit for bit.
func FuzzReader(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,2.5e-3,-0,true,false,null,"x"]}`, `"😀\ud800A\/\b\f\n\r\t\"\\"`,
		"\"\xff\xed\xa0\x80é\"", `"\ud800\u12"`, `1e400`, `-0.0E+5`, `[[[]]]`, `{"a":1,"a":2}`,
		`[]`, ` [ {"a":1} , [2],"x" ] `, `[1,]`, `[1]x`, `{"a":[1]}`,
		`9007199254740993`, `4503599627370496.5`, `1e23`, `1e-28`, `1234567890123456789e-27`, `5e-324`,
		`0`, `-0`, `999999999999999999`, `-999999999999999999`, `9223372036854775807`,
		`-9223372036854775808`, `9223372036854775808`, `2147483647`, `-2147483648`, `2147483648`, `1.0`, `1e2`,
		`{"k\"]}":[1,{"a":"]}\\"}],"b":[0.25,12345678,-3]}`, `[1,[2,{"a":3]}`, `[1.,2]`, `{"a":1}}`, `"a\`,
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
	} {
		f.Add([]byte(s))
	}
	for _, s := range stringSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ok := whole(string(data), (*Reader).Skip) == nil; ok != json.Valid(data) {
			t.Fatalf("Skip accepted=%v, json.Valid=%v", ok, !ok)
		}
		checkInt[int64](t, data, 64)
		checkInt[int32](t, data, 32)
		var s string
		if err := whole(string(data), func(r *Reader) (err error) { s, err = r.String(); return }); err == nil {
			var want string
			if err := json.Unmarshal(data, &want); err != nil || s != want {
				t.Fatalf("String = %q, encoding/json %q (%v)", s, want, err)
			}
		}
		var v float64
		if err := whole(string(data), func(r *Reader) (err error) { v, err = r.Float(); return }); err == nil {
			var want float64
			if err := json.Unmarshal(data, &want); err != nil || math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("Float = %v, encoding/json %v (%v)", v, want, err)
			}
		}
		if lit := bytes.Trim(data, " \t\r\n"); json.Valid(lit) && (lit[0] == '-' || '0' <= lit[0] && lit[0] <= '9') {
			if msg := floatMismatch(lit); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// checkInt compares Int(bitSize) on data with encoding/json decoding
// data into T, which must agree on the value and on whether to reject.
// Only null differs: Int rejects it and encoding/json leaves T unset.
func checkInt[T int64 | int32](t *testing.T, data []byte, bitSize int) {
	var v int64
	err := whole(string(data), func(r *Reader) (err error) { v, err = r.Int(bitSize); return })
	if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
		if err == nil {
			t.Fatal("Int accepted null")
		}
		return
	}
	var want T
	wantErr := json.Unmarshal(data, &want)
	if (err == nil) != (wantErr == nil) || (err == nil && v != int64(want)) {
		t.Fatalf("Int(%d) = %d (%v), encoding/json %d (%v)", bitSize, v, err, want, wantErr)
	}
}

// floatMismatch compares Float on lit, read as a whole document, with
// strconv.ParseFloat: both must accept with the same bits, -0 included,
// or both reject. It describes a difference, or returns "".
func floatMismatch(lit []byte) string {
	r := New(lit)
	v, err := r.Float()
	if err == nil {
		err = r.End()
	}
	want, wantErr := strconv.ParseFloat(string(lit), 64)
	if (err == nil) != (wantErr == nil) || err == nil && math.Float64bits(v) != math.Float64bits(want) {
		return fmt.Sprintf("Float(%s) = %v (%#x, %v), strconv %v (%#x, %v)", lit, v, math.Float64bits(v), err, want, math.Float64bits(want), wantErr)
	}
	return ""
}

// TestFloatBoundaries pins the literals at the edges of Float's exact
// conversions: ties that must round to even, the last power of ten a
// float64 holds (10^22) and the last power of five a uint64 holds
// (5^27), mantissas of 19 digits (converted in the scan) and 20 (left
// to strconv), negative zeros, the smallest subnormal and an overflow.
func TestFloatBoundaries(t *testing.T) {
	for _, lit := range []string{
		"9007199254740993", "9007199254740992", "9007199254740991", "9007199254740995",
		"4503599627370496.5", "4503599627370497.5", "-4503599627370496.5", "9007199254740993e-1",
		"1e22", "1e23", "-1e23", "9007199254740991e22", "9007199254740993e22",
		"1e-22", "1e-23", "1e27", "1e28", "1e-27", "1e-28", "3e-27", "3e-28",
		"9999999999999999999e27", "9999999999999999999e-27", "1234567890123456789e-28", "1234567890123456789e28",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "0.12345678901234567890",
		"9999999999999999999", "18446744073709551615", "18446744073709551616", "10000000000000000000e-19",
		"0.000000000000000000000000000001", "123456789012345678.9", "0.00000000000000000001e20",
		"-0", "-0.0e5", "0", "0.0", "0e999999999999", "-0e-999999999999", "5e-324", "2e-324",
		"1e400", "-1e400", "1.7976931348623157e308", "1.7976931348623159e308",
		"2.2250738585072014e-308", "2.2250738585072011e-308", "0.1", "0.2", "0.3", "1.5e-5",
	} {
		if msg := floatMismatch([]byte(lit)); msg != "" {
			t.Error(msg)
		}
	}
}

// TestFloatMatchesStrconv checks Float against strconv.ParseFloat bit
// for bit on about 1.45 million deterministic literals: random float64 bit
// patterns formatted by strconv in the 'g', 'e' and 'f' forms, shortest
// or at a random precision, and random decimals of 1 to 24 digits with
// a random sign, point, run of leading fraction zeros and exponent from
// -35 to 35.
func TestFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 1 << 18
	if testing.Short() {
		n = 1 << 12
	}
	var b []byte
	check := func() {
		if msg := floatMismatch(b); msg != "" {
			t.Fatal(msg)
		}
	}
	for range n {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		prec := -1
		if rng.IntN(2) == 0 {
			prec = rng.IntN(25)
		}
		for _, form := range []byte{'g', 'e', 'f'} {
			if form != 'f' || math.Abs(f) < 1e30 {
				b = strconv.AppendFloat(b[:0], f, form, prec, 64)
				check()
			}
		}
	}
	for range 3 * n {
		b = b[:0]
		if rng.IntN(2) == 0 {
			b = append(b, '-')
		}
		digits := 1 + rng.IntN(24)
		// intDigits of the digits go before the point; none means "0.".
		intDigits := rng.IntN(digits + 1)
		if intDigits == 0 {
			b = append(b, "0."...)
			for z := rng.IntN(30); z > 0; z-- {
				b = append(b, '0')
			}
		}
		for k := range digits {
			if k == intDigits && k > 0 {
				b = append(b, '.')
			}
			c := byte('0' + rng.IntN(10))
			if k == 0 && intDigits > 1 && c == '0' {
				c = '1' // JSON allows no leading zero
			}
			b = append(b, c)
		}
		if rng.IntN(4) != 0 {
			b = append(b, "eE"[rng.IntN(2)])
			b = strconv.AppendInt(b, int64(rng.IntN(71)-35), 10)
		}
		check()
	}
}

// TestBulkReadsAllocateNothing: Floats and Ints into slices with room
// for every element allocate nothing.
func TestBulkReadsAllocateNothing(t *testing.T) {
	floats := []byte(`[0.12345678901234567, 0, -1e-5, 3.25e+2, 12345, 1.2345678901234567e-300]`)
	ints := []byte(`[1, -1, 0, 2147483647, -2147483648, 17]`)
	fs := make([]float64, 0, 8)
	is := make([]int64, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		r := Reader{data: floats}
		if _, err := r.Floats(fs[:0]); err != nil {
			t.Fatal(err)
		}
		r = Reader{data: ints}
		if _, err := r.Ints(is[:0], 32); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Floats and Ints allocate %.0f/op, want 0", allocs)
	}
}

// BenchmarkReaderNumbers reads an array shaped like a saved forest's
// numbers: 17-digit thresholds, literal 0s where Save writes the fields
// no walk reads, and short integers.
func BenchmarkReaderNumbers(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	doc := []byte{'['}
	for i := range 4096 {
		if i > 0 {
			doc = append(doc, ',')
		}
		switch i % 4 {
		case 0:
			doc = strconv.AppendFloat(doc, rng.Float64(), 'g', 17, 64)
		case 1, 2:
			doc = append(doc, '0')
		default:
			doc = strconv.AppendInt(doc, int64(rng.IntN(1000)-1), 10)
		}
	}
	doc = append(doc, ']')
	dst := make([]float64, 0, 4096)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Reader{data: doc}
		if _, err := r.Floats(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
