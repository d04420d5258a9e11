package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"
)

func TestRead(t *testing.T) {
	for _, body := range [][]byte{[]byte(strings.Repeat("napel", 1000)), make([]byte, 3*firstRead)} {
		for _, size := range []int64{-1, 0, 10, int64(len(body)), int64(len(body)) + 7} {
			got, err := Read(iotest.HalfReader(bytes.NewReader(body)), size)
			if err != nil || !bytes.Equal(got, body) {
				t.Errorf("%d-byte body, size %d: read %d bytes, %v", len(body), size, len(got), err)
			}
		}
	}
	failure := errors.New("connection reset")
	if _, err := Read(iotest.ErrReader(failure), 10); !errors.Is(err, failure) {
		t.Errorf("read error %v, want %v", err, failure)
	}
}

// TestReadSizedAllocs pins the point of sizing in advance: reading a
// 187 KB body whose size is known takes one allocation of about its
// size, where io.ReadAll took 21 allocations and 908 KB. A 4 MiB body,
// past firstRead, doubles its way there in 5 allocations totalling less
// than twice its size. The collector is off while it counts: a cycle
// that these large reads start may allocate on its own.
func TestReadSizedAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		size, allocs, maxBytes int
	}{
		{187 << 10, 1, 187<<10 + 8<<10},
		{4 << 20, 5, 8 << 20},
	} {
		body := make([]byte, c.size)
		r := bytes.NewReader(body)
		read := func() {
			r.Reset(body)
			if got, err := Read(r, int64(len(body))); err != nil || len(got) != len(body) {
				t.Fatalf("read %d bytes, %v", len(got), err)
			}
		}
		if n := testing.AllocsPerRun(5, read); n != float64(c.allocs) {
			t.Errorf("a sized read of %d bytes allocates %.0f times, want %d", c.size, n, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(c.maxBytes) {
			t.Errorf("a sized read of %d bytes allocated %d, want at most %d", c.size, alloc, c.maxBytes)
		}
	}
}

func TestRequestStatuses(t *testing.T) {
	const limit = 64
	for _, c := range []struct {
		name   string
		body   io.Reader
		length int64
		status int
	}{
		{"within the limit", strings.NewReader("{}"), 2, http.StatusOK},
		{"no length", strings.NewReader("{}"), -1, http.StatusOK},
		{"declared past the limit", strings.NewReader("{}"), limit + 1, http.StatusRequestEntityTooLarge},
		{"read past the limit", strings.NewReader(strings.Repeat(" ", limit+1)), -1, http.StatusRequestEntityTooLarge},
		{"read error", iotest.ErrReader(errors.New("reset")), -1, http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", nil)
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(c.body), limit)
		r.ContentLength = c.length
		body, status, err := Request(r, limit)
		if status != c.status || (err == nil) != (status == http.StatusOK) {
			t.Errorf("%s: status %d, error %v, want %d", c.name, status, err, c.status)
		}
		if status == http.StatusOK && string(body) != "{}" {
			t.Errorf("%s: body %q", c.name, body)
		}
	}
}

// TestRequestDeclaredLengthUnsent: a client that declares the longest
// body the limit allows and then sends nothing holds at most firstRead
// while its read waits, not the declared length. Sized from the header
// alone, this read allocated the whole 8 MiB before any byte came.
func TestRequestDeclaredLengthUnsent(t *testing.T) {
	const limit = 8 << 20
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(iotest.ErrReader(io.ErrUnexpectedEOF)), limit)
	r.ContentLength = limit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, status, _ := Request(r, limit)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Errorf("status %d, want 400", status)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > firstRead+16<<10 {
		t.Errorf("an unsent body declared at %d bytes allocated %d, want at most %d", limit, alloc, firstRead)
	}
}
