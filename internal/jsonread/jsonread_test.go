package jsonread

import (
	"bytes"
	"encoding/json"
	"math"
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

// FuzzReader checks the reader against encoding/json on arbitrary bytes:
// Skip accepts exactly the documents json.Valid accepts, a string or
// number the reader accepts decodes to what encoding/json decodes, and
// Elements accepts exactly the valid documents that are arrays, whose
// elements are then encoding/json's []json.RawMessage byte for byte.
func FuzzReader(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,2.5e-3,-0,true,false,null,"x"]}`, `"😀\ud800A\/\b\f\n\r\t\"\\"`,
		"\"\xff\xed\xa0\x80é\"", `"\ud800\u12"`, `1e400`, `-0.0E+5`, `[[[]]]`, `{"a":1,"a":2}`,
		`[]`, ` [ {"a":1} , [2],"x" ] `, `[1,]`, `[1]x`, `{"a":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ok := whole(string(data), (*Reader).Skip) == nil; ok != json.Valid(data) {
			t.Fatalf("Skip accepted=%v, json.Valid=%v", ok, !ok)
		}
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
		elems, err := Elements(data)
		isArray := json.Valid(data) && bytes.TrimLeft(data, " \t\r\n")[0] == '['
		if (err == nil) != isArray {
			t.Fatalf("Elements accepted=%v (%v), valid array=%v", err == nil, err, isArray)
		}
		if err == nil {
			var want []json.RawMessage
			if err := json.Unmarshal(data, &want); err != nil || len(elems) != len(want) {
				t.Fatalf("Elements found %d elements, encoding/json %d (%v)", len(elems), len(want), err)
			}
			for i := range want {
				if !bytes.Equal(elems[i], want[i]) {
					t.Fatalf("element %d = %q, encoding/json %q", i, elems[i], want[i])
				}
			}
		}
	})
}
