package atomicfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"napel/internal/resilience/faultpoint"
)

// Fault point for append-log writes: "atomicfile.append" fails (or, in
// partial mode, tears) a record append — the torn-tail case ReadLines
// is built to survive.
const fpAppend = "atomicfile.append"

// AppendLog is a crash-tolerant append-only record log: one record per
// newline-terminated line, each appended with a single write syscall so
// a crash can tear at most the final record. Readers use ReadLines,
// which drops an unterminated tail instead of failing — the append-side
// counterpart to WriteFile's rename protocol, for state that grows
// record-by-record (collectd's coordination journal) instead of being
// republished whole.
type AppendLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenAppend opens (creating if absent) an append log at path.
func OpenAppend(path string) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicfile: open append %s: %w", path, err)
	}
	// Make the log's directory entry durable so a crash right after
	// creation does not lose the (empty) file the caller now relies on.
	syncDir(filepath.Dir(path))
	return &AppendLog{f: f, path: path}, nil
}

// Path returns the log's file path.
func (l *AppendLog) Path() string { return l.path }

// Append writes one record. The record must not contain a newline (the
// record separator); JSON-encoded records satisfy this by construction,
// since encoding/json escapes control characters. With sync set the
// record is fsynced before Append returns — use it for records whose
// loss would change replayed state, and skip it for purely advisory
// ones.
func (l *AppendLog) Append(record []byte, sync bool) error {
	if bytes.IndexByte(record, '\n') >= 0 {
		return fmt.Errorf("atomicfile: append %s: record contains newline", l.path)
	}
	line := make([]byte, 0, len(record)+1)
	line = append(line, record...)
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	// A partial-mode fault here leaks half the record without its
	// terminator — exactly what a crash mid-append leaves behind, and
	// what ReadLines' torn-tail handling exists for.
	if _, err := faultpoint.WrapWriter(fpAppend, l.f).Write(line); err != nil {
		return fmt.Errorf("atomicfile: append %s: %w", l.path, err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("atomicfile: sync %s: %w", l.path, err)
		}
	}
	return nil
}

// Sync fsyncs the log.
func (l *AppendLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close syncs and closes the log. The log must not be used afterwards.
func (l *AppendLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.f.Sync()
	return l.f.Close()
}

// ReadLines reads every complete (newline-terminated) record from an
// append log. An unterminated final fragment — the signature of a crash
// mid-append — is not an error: it is dropped and reported via torn.
// A missing file is an empty log.
func ReadLines(path string) (records [][]byte, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("atomicfile: read %s: %w", path, err)
	}
	off := 0
	for {
		rec, end, ok := nextRecord(data, off)
		off = end
		if !ok {
			return records, off < len(data), nil
		}
		records = append(records, bytes.Clone(rec))
	}
}

// nextRecord returns the first complete record in data at or after off,
// skipping empty lines, and the offset just past its newline. With no
// complete record left, ok is false and end is where the unterminated
// fragment, if any, starts.
func nextRecord(data []byte, off int) (rec []byte, end int, ok bool) {
	for {
		i := bytes.IndexByte(data[off:], '\n')
		switch {
		case i < 0:
			return nil, off, false
		case i > 0:
			return data[off : off+i], off + i + 1, true
		}
		off++
	}
}

// TruncateRecords cuts the log at path after its first n records, as
// ReadLines counts them, and syncs the cut. A log reopened after a crash
// must be cut before the next append: a torn tail, or a record the
// reader rejected, would otherwise run into the appended record and
// make one line no reader can decode.
func TruncateRecords(path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("atomicfile: truncate %s: %w", path, err)
	}
	off := 0
	for ; n > 0; n-- {
		_, end, ok := nextRecord(data, off)
		if !ok {
			break
		}
		off = end
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("atomicfile: truncate %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("atomicfile: truncate %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync %s: %w", path, err)
	}
	return f.Close()
}
