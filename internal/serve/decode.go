package serve

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"sync"

	"napel/internal/jsonread"
	"napel/internal/pisa"
)

// The request decoder reads predict and suitability bodies in one pass
// with internal/jsonread, writing each feature value straight into its
// slot of the request's profileVec, where encoding/json would build a
// 395-entry map per profile. It accepts exactly the bodies encoding/json
// accepts into PredictRequest, []PredictRequest and SuitabilityRequest,
// and reads them to the same values (FuzzDecodeRequest checks both
// against encoding/json plus the map-form assembly):
//
//   - object keys match field names exactly or under Unicode case
//     folding; feature names match exactly;
//   - a repeated key wins over the earlier one, and a repeated object
//     merges into it, so two features objects make one map;
//   - null leaves a scalar or object field as it was, clears features
//     and hit_curve, and is a present feature of value 0;
//   - a repeated hit_curve overwrites the earlier one in place, as
//     encoding/json reuses a slice, so a null element keeps what the
//     earlier array held at its index;
//   - unknown keys are skipped once checked to be well-formed JSON.
//
// An unknown feature name counts each time it appears, where
// encoding/json's map holds it once, so a body that repeats one reads a
// larger count in its "profile has N features" 422; any unknown name
// fails the check either way.
//
// It stops at the first problem, where encoding/json reads on, so it
// answers with the first problem it meets; both reject the body. A
// batch stops at item max+1, before reading it.

// requestFields are the json names of PredictRequest's fields and, last,
// SuitabilityRequest's host.
var (
	requestFields = []string{"model", "profile", "arch", "threads", "host"}
	profileFields = []string{"sim_instrs", "coverage", "total_instrs", "footprint_bytes", "features", "hit_curve"}
	archFields    = []string{"pes", "freq_ghz", "core", "l1_line_bytes", "l1_lines", "l1_assoc", "dram_layers", "dram_size_bytes"}
	hostFields    = []string{"time_sec", "energy_j", "edp"}
)

// featureTable lists the pisa feature names in sorted order, the order
// in which Go clients such as napel export-profile and loadgen marshal
// the features map, with each name's slot in profileVec and, by name,
// its place in the list.
type featureTable struct {
	names []string
	slots []int
	place map[string]int
}

var featureOrder = sync.OnceValue(func() *featureTable {
	names := pisa.FeatureNames()
	t := &featureTable{names: slices.Clone(names), place: make(map[string]int, len(names))}
	slices.Sort(t.names)
	t.slots = make([]int, len(names))
	for k, n := range t.names {
		t.slots[k] = slices.Index(names, n)
		t.place[n] = k
	}
	return t
})

// errBatchTooLarge stops a batch at item max+1.
var errBatchTooLarge = errors.New("batch too large")

// decodeError is a body the decoder cannot read: malformed JSON or a
// value of the wrong type. Its message names the field but not the byte
// offset or the batch item, so one bad item reads the same in any batch
// that holds it.
type decodeError struct {
	field string // dotted path from the request object; empty at the top
	msg   string
}

func (e *decodeError) Error() string {
	if e.field == "" {
		return e.msg
	}
	return e.field + ": " + e.msg
}

func asDecodeError(err error) *decodeError {
	var de *decodeError
	if errors.As(err, &de) {
		return de
	}
	var se *jsonread.SyntaxError
	if errors.As(err, &se) {
		return &decodeError{msg: se.Msg}
	}
	return &decodeError{msg: err.Error()}
}

// inField attributes err, met while reading the named field's value, to
// that field.
func inField(name string, err error) error {
	if err == nil {
		return nil
	}
	de := asDecodeError(err)
	if de.field == "" {
		de.field = name
	} else {
		de.field = name + "." + de.field
	}
	return de
}

// decodeRequest reads a single predict body into in, or with a non-nil
// host a suitability body into in and host.
func decodeRequest(body []byte, in *input, host *WireHost) error {
	d := decoder{r: jsonread.New(body)}
	err := d.request(in, host)
	if err == nil {
		err = d.r.End()
	}
	if err != nil {
		return asDecodeError(err)
	}
	return nil
}

// decodeBatch reads a batch body, item by item in one pass. It returns
// errBatchTooLarge at item max+1, before reading that item.
func decodeBatch(body []byte, max int) ([]input, error) {
	d := decoder{r: jsonread.New(body)}
	var items []input
	err := d.r.Array(func() error {
		if len(items) == max {
			return errBatchTooLarge
		}
		items = append(items, input{})
		return d.request(&items[len(items)-1], nil)
	})
	if err == nil {
		err = d.r.End()
	}
	switch {
	case errors.Is(err, errBatchTooLarge):
		return nil, err
	case err != nil:
		return nil, asDecodeError(err)
	}
	return items, nil
}

type decoder struct {
	r *jsonread.Reader
}

// match returns the index of the field key names, matched the way
// encoding/json matches struct fields, or -1. No two names fold to the
// same string, so a fold match is the exact match whenever one exists.
func match(key []byte, names []string) int {
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

func (d *decoder) request(in *input, host *WireHost) error {
	if d.r.Null() {
		return nil
	}
	names := requestFields
	if host == nil {
		names = names[:len(names)-1]
	}
	return d.r.Object(func(key []byte) error {
		var err error
		i := match(key, names)
		switch i {
		case 0:
			err = d.string(&in.model)
		case 1:
			err = d.profile(&in.prof)
		case 2:
			err = d.arch(&in.arch)
		case 3:
			err = d.int(&in.threads)
		case 4:
			err = d.host(host)
		default:
			return d.r.Skip()
		}
		return inField(names[i], err)
	})
}

func (d *decoder) profile(p *profileVec) error {
	if d.r.Null() {
		return nil
	}
	return d.r.Object(func(key []byte) error {
		var err error
		var unused float64
		var unusedUint uint64
		i := match(key, profileFields)
		switch i {
		case 0:
			err = d.uint(&unusedUint)
		case 1, 3:
			err = d.float(&unused)
		case 2:
			err = d.float(&p.total)
		case 4:
			err = d.features(p)
		case 5:
			err = d.hitCurve(p)
		default:
			return d.r.Skip()
		}
		return inField(profileFields[i], err)
	})
}

func (d *decoder) features(p *profileVec) error {
	if d.r.Null() {
		p.present = [len(p.present)]uint64{}
		p.unknown = 0
		return nil
	}
	t := featureOrder()
	next := 0 // the place of the name expected next, in sorted order
	return d.r.Object(func(key []byte) error {
		k := next
		if k >= len(t.names) || string(key) != t.names[k] {
			var known bool
			if k, known = t.place[string(key)]; !known {
				k = -1
				p.unknown++
			}
		}
		var v float64
		if err := d.float(&v); err != nil {
			return err
		}
		if k >= 0 {
			p.set(t.slots[k], v)
			next = k + 1
		}
		return nil
	})
}

func (d *decoder) hitCurve(p *profileVec) error {
	if d.r.Null() {
		p.hitCurve = nil
		return nil
	}
	c := p.hitCurve
	if cap(c) == 0 {
		c = make([]float64, 0, d.r.ArrayLen())
	}
	n := 0
	err := d.r.Array(func() error {
		if n == len(c) {
			if n < cap(c) {
				c = c[:n+1]
			} else {
				c = append(c, 0)
			}
		}
		n++
		return d.float(&c[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		c = c[:0:0]
	}
	p.hitCurve = c[:n]
	return nil
}

func (d *decoder) arch(a *WireArch) error {
	if d.r.Null() {
		return nil
	}
	return d.r.Object(func(key []byte) error {
		var err error
		i := match(key, archFields)
		switch i {
		case 0:
			err = d.int(&a.PEs)
		case 1:
			err = d.float(&a.FreqGHz)
		case 2:
			err = d.string(&a.Core)
		case 3:
			err = d.int(&a.L1LineBytes)
		case 4:
			err = d.int(&a.L1Lines)
		case 5:
			err = d.int(&a.L1Assoc)
		case 6:
			err = d.int(&a.DRAMLayers)
		case 7:
			err = d.uint(&a.DRAMSizeBytes)
		default:
			return d.r.Skip()
		}
		return inField(archFields[i], err)
	})
}

func (d *decoder) host(h *WireHost) error {
	if d.r.Null() {
		return nil
	}
	return d.r.Object(func(key []byte) error {
		var err error
		i := match(key, hostFields)
		switch i {
		case 0:
			err = d.float(&h.TimeSec)
		case 1:
			err = d.float(&h.EnergyJ)
		case 2:
			err = d.float(&h.EDP)
		default:
			return d.r.Skip()
		}
		return inField(hostFields[i], err)
	})
}

// The scalar readers leave *dst as it was on null, as encoding/json
// does.

func (d *decoder) float(dst *float64) error {
	if d.r.Null() {
		return nil
	}
	v, err := d.r.Float()
	if err == nil {
		*dst = v
	}
	return err
}

func (d *decoder) int(dst *int) error {
	if d.r.Null() {
		return nil
	}
	v, err := d.r.Int(strconv.IntSize)
	if err == nil {
		*dst = int(v)
	}
	return err
}

func (d *decoder) uint(dst *uint64) error {
	if d.r.Null() {
		return nil
	}
	v, err := d.r.Uint(64)
	if err == nil {
		*dst = v
	}
	return err
}

func (d *decoder) string(dst *string) error {
	if d.r.Null() {
		return nil
	}
	v, err := d.r.String()
	if err == nil {
		*dst = v
	}
	return err
}
