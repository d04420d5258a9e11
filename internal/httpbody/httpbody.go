// Package httpbody reads HTTP bodies whole into a buffer sized in
// advance from Content-Length. io.ReadAll starts at 512 bytes and grows
// by copying, which for a 187 KB batch body allocates 908 KB in 21
// pieces; a buffer sized from the header takes one allocation of the
// body's size. It is a leaf package so that napel-serve and napel-gate
// share it without the gate importing the serving code.
package httpbody

import (
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
// end of a body of that size does not grow it. Past firstRead the buffer
// doubles as bytes arrive, up to the declared size, so a body of the
// declared length allocates less than twice its size however long it
// is. A longer body still reads whole, and a negative size grows the
// buffer as io.ReadAll does.
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

// Request reads the body of r, which the caller has wrapped in an
// http.MaxBytesReader of the given limit. A Content-Length above the
// limit is refused before anything is read or allocated. On failure it
// returns the status to answer with: 413 past the limit, 400 on any
// other read error.
func Request(r *http.Request, limit int64) ([]byte, int, error) {
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	body, err := Read(r.Body, r.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, err
	}
	return body, http.StatusOK, nil
}
