// Package httpd is the HTTP shell every napel daemon serves through: one
// http.Server with the same timeouts and drain (Serve), one JSON answer
// and error writer, one status recorder, one set of per-endpoint request
// metrics, and request bodies read into a buffer sized in advance from
// Content-Length. It is a leaf package, so that napel-serve and
// napel-gate share it without the gate importing the serving code.
package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// firstRead caps the buffer Read allocates before any byte has arrived,
// so a client that declares a length and sends nothing holds at most
// this much. It is above a batch of 16 profiles (187 KB), which then
// still reads in one allocation.
const firstRead = 256 << 10

// Read reads r to EOF. A size of zero or more, such as a Content-Length,
// sizes the buffer in advance with a byte to spare, so that reading the
// end of a body of that size does not grow it: io.ReadAll starts at 512
// bytes and grows by copying, which for a 187 KB batch body allocates
// 908 KB in 21 pieces. Past firstRead the buffer doubles as bytes
// arrive, up to the declared size, so a body of the declared length
// allocates less than twice its size however long it is. A longer body
// still reads whole, and a negative size grows the buffer as io.ReadAll
// does.
func Read(r io.Reader, size int64) ([]byte, error) {
	if size < 0 {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, min(size, firstRead)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			next := 2 * int64(cap(b))
			if int64(cap(b)) <= size {
				next = min(next, size+1)
			}
			grown := make([]byte, len(b), next)
			copy(grown, b)
			b = grown
		}
	}
}

// Request reads the body of r, at most limit bytes of it. A
// Content-Length above the limit is refused before anything is read or
// allocated. When the read fails, Request answers the request itself,
// 413 past the limit and 400 on any other read error, and reports false.
func Request(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
		return nil, false
	}
	body, err := Read(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err == nil {
		return body, true
	}
	// Declared past the success return: errors.As moves it to the heap.
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
	} else {
		WriteError(w, http.StatusBadRequest, err.Error())
	}
	return nil, false
}

// WriteJSON answers with status and v encoded as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the body {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// Recorder remembers the status and the body size of the answer written
// through it, for request metrics and access logs. Status is 0 until
// the handler writes.
type Recorder struct {
	http.ResponseWriter
	Status int
	Bytes  int64
}

func (rec *Recorder) WriteHeader(code int) {
	if rec.Status == 0 {
		rec.Status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *Recorder) Write(p []byte) (int, error) {
	if rec.Status == 0 {
		rec.Status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.Bytes += int64(n)
	return n, err
}
