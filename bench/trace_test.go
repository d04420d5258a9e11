package main

import "testing"

func TestSelfTimes(t *testing.T) {
	// op [0,100) holds decode [10,30), assemble [25,45) overlapping it,
	// and predict [90,120) running past the op's end; assemble holds a
	// child [30,35). Covered part of op: [10,45) and [90,100) = 45.
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "decode", parent: 0, start: 10, end: 30},
		{name: "assemble", parent: 0, start: 25, end: 45},
		{name: "inner", parent: 2, start: 30, end: 35},
		{name: "predict", parent: 0, start: 90, end: 120},
		{name: "op", parent: -1, start: 200, end: 210},
	}
	want := []int64{55, 20, 15, 5, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if op := agg["op"]; op.calls != 2 || op.total != 65 || op.mean() != 32.5 {
		t.Errorf("op aggregate = %+v, want 2 calls, 65 total", op)
	}
}

func TestRecorderSpans(t *testing.T) {
	var off *recorder
	if i := off.begin("x", 0, -1); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	off.end(-1)
	r := newRecorder(recTime, 1)
	root := r.begin("op", 7, -1)
	child := r.begin("leaf", 7, root)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].parent != root || r.spans[0].end < r.spans[1].end {
		t.Fatalf("spans = %+v", r.spans)
	}
}
