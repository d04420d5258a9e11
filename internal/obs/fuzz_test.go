package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// renderSamples writes exp's samples back as "Key() value" lines, the
// canonical text of each series.
func renderSamples(exp *Exposition) []byte {
	var b bytes.Buffer
	for _, s := range exp.Samples {
		fmt.Fprintf(&b, "%s %s\n", s.Key(), strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
	return b.Bytes()
}

// FuzzParseExposition feeds arbitrary bytes to the scrape parsers: they
// never panic, ParseText accepts exactly what ParseExposition accepts,
// and an accepted scrape re-rendered as Key() value lines parses back to
// the same snapshot, values bit for bit.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, expErr := ParseExposition(bytes.NewReader(data))
		snap, err := ParseText(bytes.NewReader(data))
		if (expErr == nil) != (err == nil) {
			t.Fatalf("ParseExposition error %v, ParseText error %v", expErr, err)
		}
		if err != nil {
			return
		}
		text := renderSamples(exp)
		again, err := ParseText(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("re-rendered scrape does not parse: %v\n%s", err, text)
		}
		if len(again) != len(snap) {
			t.Fatalf("re-rendered scrape has %d series, want %d\n%s", len(again), len(snap), text)
		}
		for series, v := range snap {
			got, ok := again[series]
			if !ok || math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: %v (present %v) after the round trip, want %v", series, got, ok, v)
			}
		}
	})
}

// FuzzParseTraceParent feeds arbitrary header values to ParseTraceParent:
// it never panics, a rejected header yields the zero SpanContext, and an
// accepted one is Valid and survives FormatTraceParent unchanged.
func FuzzParseTraceParent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceParent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as invalid %+v", h, sc)
		}
		formatted := FormatTraceParent(sc.TraceID, sc.SpanID)
		back, ok := ParseTraceParent(formatted)
		if !ok || back != sc {
			t.Fatalf("%q -> %+v -> %q -> %+v (ok %v)", h, sc, formatted, back, ok)
		}
	})
}
