package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"napel/internal/obs"
)

// recMode selects what a recorder measures around each layer call.
type recMode int

const (
	recTime   recMode = iota // start/end in ns since the pass began
	recAllocs                // start/end are runtime mallocs counts
)

// span is one recorded layer call. parent is the index of the enclosing
// span, -1 for an operation's root.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64
}

// recorder keeps spans in a preallocated slice and writes nothing until
// the pass is over, so recording costs two clock reads and a store.
type recorder struct {
	mode  recMode
	base  time.Time
	spans []span
	ms    runtime.MemStats
}

func newRecorder(mode recMode, capacity int) *recorder {
	return &recorder{mode: mode, base: time.Now(), spans: make([]span, 0, capacity)}
}

// now reads the recorder's clock. In alloc mode that is the exact
// mallocs count: ReadMemStats flushes every per-P cache first, so the
// difference across a call is the objects that call allocated.
func (r *recorder) now() int64 {
	if r.mode == recAllocs {
		runtime.ReadMemStats(&r.ms)
		return int64(r.ms.Mallocs)
	}
	return int64(time.Since(r.base))
}

// begin opens a span and returns its index; a nil recorder records
// nothing and returns -1. The slot is appended before the clock is read,
// so a slice growth is never charged to the call.
func (r *recorder) begin(name string, op, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent})
	i := int32(len(r.spans) - 1)
	r.spans[i].start = r.now()
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = r.now()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other or run past
// their parent; only the union inside the parent is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStat is the per-name aggregate of one pass.
type layerStat struct {
	calls int
	total int64 // self ns (time pass) or mallocs (alloc pass)
}

func (l layerStat) mean() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.total) / float64(l.calls)
}

// aggregate sums each span name's self measure. Layer spans are leaves,
// so in the alloc pass their self measure is their whole difference.
func aggregate(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		l := out[s.name]
		l.calls++
		l.total += self[i]
		out[s.name] = l
	}
	return out
}

// writeSpans appends spans in obs.SpanRecord form, one JSON object per
// line, tagged with the workload and the operation index. Each op is a
// trace; ids are derived from the workload index and the span index.
func writeSpans(w io.Writer, workload string, wi int, base time.Time, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	id := func(i int32) string {
		if i < 0 {
			return ""
		}
		return fmt.Sprintf("%016x", uint64(wi+1)<<40|uint64(i+1))
	}
	for i, s := range spans {
		rec := obs.SpanRecord{
			TraceID:         fmt.Sprintf("%016x", uint64(wi+1)<<40|uint64(s.op+1)),
			SpanID:          id(int32(i)),
			ParentID:        id(s.parent),
			Name:            s.name,
			Start:           base.Add(time.Duration(s.start)),
			DurationSeconds: float64(s.end-s.start) / 1e9,
			Attrs: []obs.Attr{
				{Key: "workload", Value: workload},
				{Key: "op", Value: strconv.Itoa(int(s.op))},
			},
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
