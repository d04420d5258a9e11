package collectd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"napel/internal/atomicfile"
	"napel/internal/napel"
)

// Journal makes the coordinator's lease state crash-durable: every
// queue transition is appended to an atomicfile.AppendLog, and verified
// payload completions are fsynced before the engine sees them. When
// napel-traind is SIGKILLed mid-distributed-run and restarted, the
// manager's checkpoint recovery re-enqueues the job and the engine
// re-offers every unassembled unit; the reopened journal then answers
// those units that completed after the last engine checkpoint straight
// from disk — no worker re-executes them, and the assembled
// TrainingData stays byte-identical to serial collection, the invariant
// the whole protocol is built around.
//
// Record format (one JSON object per line; see atomicfile.AppendLog for
// the torn-tail rules):
//
//	{"t":"enqueue","key":K,"spec":H}                 unit offered to the fleet
//	{"t":"lease","key":K,"lease":L,"worker":W}       unit claimed
//	{"t":"requeue","key":K}                          lease expired / payload corrupt
//	{"t":"complete","key":K,"spec":H,"worker":W,
//	 "sha256":S,"payload":{...}}                     verified payload (fsynced)
//
// Only complete records change replay behavior; the rest are a durable
// operational trace. H is the sha256 of the unit spec's JSON encoding:
// a completion is only replayed for a spec that hashes identically, so
// a journal left over from a differently-configured job (other budgets,
// other training architectures — same key) can never smuggle a stale
// payload into the engine. Payload bytes are additionally re-verified
// against their recorded sha256 and napel.UnitPayload.Check before use.
type Journal struct {
	mu        sync.Mutex
	log       *atomicfile.AppendLog
	completed map[string]journalRecord // unit key -> latest complete record
	replayed  int                      // completions restored at open
	dropped   int                      // torn or unusable records skipped at open
	writeErrs int
	logf      func(format string, args ...any)
}

type journalRecord struct {
	T       string          `json:"t"`
	Key     string          `json:"key,omitempty"`
	Spec    string          `json:"spec,omitempty"` // sha256 of the spec JSON
	Lease   string          `json:"lease,omitempty"`
	Worker  string          `json:"worker,omitempty"`
	SHA256  string          `json:"sha256,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// OpenJournal replays the journal at path (a missing file is an empty
// journal) and opens it for appending. A torn final record — the
// normal residue of a crash mid-append — is dropped, counted and cut
// from the file before anything is appended; a corrupt record anywhere
// else is an error, because it means something other than a crash
// rewrote history. logf may be nil.
func OpenJournal(path string, logf func(format string, args ...any)) (*Journal, error) {
	lines, torn, err := atomicfile.ReadLines(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{completed: map[string]journalRecord{}, logf: logf}
	kept := len(lines) // records the next append follows
	if torn {
		j.dropped++
	}
	for i, line := range lines {
		var rec journalRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			if i == len(lines)-1 {
				// A terminated-but-undecodable tail gets the same
				// benefit of the doubt as an unterminated one.
				j.dropped++
				kept--
				continue
			}
			return nil, fmt.Errorf("collectd: journal %s record %d corrupt: %w", path, i+1, uerr)
		}
		if rec.T != "complete" {
			continue
		}
		sum := sha256.Sum256(rec.Payload)
		if hex.EncodeToString(sum[:]) != rec.SHA256 {
			j.dropped++
			continue
		}
		j.completed[rec.Key] = rec
	}
	j.replayed = len(j.completed)
	if torn || kept < len(lines) {
		if err := atomicfile.TruncateRecords(path, kept); err != nil {
			return nil, err
		}
	}
	log, err := atomicfile.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	j.log = log
	if j.replayed > 0 || j.dropped > 0 {
		j.printf("collectd: journal %s: %d completed unit(s) replayable, %d record(s) dropped", path, j.replayed, j.dropped)
	}
	return j, nil
}

func (j *Journal) printf(format string, args ...any) {
	if j.logf != nil {
		j.logf(format, args...)
	}
}

// record appends one record. Journal write failures never fail the
// operation being journaled — durability degrades, the run continues —
// but they are counted and logged (once per streak would be nicer;
// once per failure is honest).
func (j *Journal) record(rec journalRecord, sync bool) {
	b, err := json.Marshal(rec)
	if err == nil {
		err = j.log.Append(b, sync)
	}
	if err != nil {
		j.mu.Lock()
		j.writeErrs++
		j.mu.Unlock()
		j.printf("collectd: journal append failed (%s %s): %v", rec.T, rec.Key, err)
	}
}

// replayable returns the payload bytes of a journaled completion for
// key, provided it was produced from an identically-hashed spec. The
// entry stays in the map: replay is idempotent, and a later engine
// retry of the same unit deserves the same answer.
func (j *Journal) replayable(key, spec string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.completed[key]
	if !ok || rec.Spec != spec {
		return nil, false
	}
	return rec.Payload, true
}

// Dropped returns how many records were discarded during replay.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Close syncs and closes the underlying log.
func (j *Journal) Close() error {
	if j == nil || j.log == nil {
		return nil
	}
	return j.log.Close()
}

// specHash is the fingerprint that scopes journal replay to one job
// configuration: sha256 over the spec's canonical JSON encoding
// (struct fields in declaration order, map keys sorted — both
// guaranteed by encoding/json).
func specHash(spec napel.UnitSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
