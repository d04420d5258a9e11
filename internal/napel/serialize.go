package napel

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"napel/internal/atomicfile"
	"napel/internal/jsonread"
	"napel/internal/ml"
	"napel/internal/ml/rf"
	"napel/internal/pisa"
	"napel/internal/workload"
)

// savedPredictor is the JSON envelope of a trained Predictor: the two
// random forests with their log-space clamp ranges, plus the feature
// names for sanity checking at load time. Only the shipped NAPEL
// configuration (log-target random forests) is serializable; the
// Figure 5 baselines are evaluation-only. No wall-clock field is
// written, so a model's bytes, and its content version, are a pure
// function of its training data, settings and seed.
type savedPredictor struct {
	Version int               `json:"version"`
	Names   []string          `json:"feature_names"`
	Chosen  map[string]string `json:"chosen,omitempty"`
	IPC     savedModel        `json:"ipc"`
	EPI     savedModel        `json:"epi"`
}

type savedModel struct {
	Lo     float64   `json:"log_lo"`
	Hi     float64   `json:"log_hi"`
	Forest rf.Header `json:"forest"`
}

// Format versions, bumped on incompatible changes. A predictor file of
// version 3 is a JSON envelope on one line whose forests count their
// trees' nodes, then the node images themselves, raw (see Save).
// Version 2 held each tree as a base64 node image inside the JSON, and
// version 1 as five node arrays; both still load. Training data files
// are unchanged since version 1.
const (
	predictorVersion    = 3
	oldPredictorVersion = 1 // the oldest LoadPredictor reads
	trainingDataVersion = 1
)

// ErrBadModelVersion reports a predictor file whose format version this
// build cannot read. It is a sentinel (match with errors.Is) so that
// callers can distinguish "valid file, wrong version" from plain
// corruption — napel-serve maps it to HTTP 422 instead of 500.
var ErrBadModelVersion = errors.New("napel: unsupported predictor format version")

// Save serializes the predictor in format version 3. Its first line is
// a JSON envelope, {"version":3,"feature_names":...,"chosen":...,
// "ipc":{...},"epi":{...}}, in which each forest holds its params, its
// importance and "node_counts", each tree's node count (rf.Header). The
// '\n' that ends the line is followed by the nodes of the IPC forest's
// trees, then of the EPI forest's, in node_counts order, each node the
// 16 bytes of its resident layout: v as float64 bits, then feature and
// right as int32s, all little-endian. The file ends at the last node.
// Save fails if the models are not log-target random forests (the only
// configuration Train produces).
func (p *Predictor) Save(w io.Writer) error {
	ipc, nodes, err := saveModel(p.IPC, nil)
	if err != nil {
		return fmt.Errorf("napel: saving IPC model: %w", err)
	}
	epi, nodes, err := saveModel(p.EPI, nodes)
	if err != nil {
		return fmt.Errorf("napel: saving energy model: %w", err)
	}
	chosen := map[string]string{}
	for t, name := range p.Chosen {
		chosen[t.String()] = name
	}
	err = json.NewEncoder(w).Encode(savedPredictor{
		Version: predictorVersion,
		Names:   p.Names,
		Chosen:  chosen,
		IPC:     ipc,
		EPI:     epi,
	})
	if err != nil {
		return err
	}
	_, err = w.Write(nodes)
	return err
}

// saveModel returns m's envelope and appends its forest's node images
// to nodes.
func saveModel(m ml.Model, nodes []byte) (savedModel, []byte, error) {
	inner, lo, hi, ok := ml.UnwrapLogModel(m)
	if !ok {
		return savedModel{}, nil, fmt.Errorf("model is not a log-target model")
	}
	forest, ok := inner.(*rf.Forest)
	if !ok {
		return savedModel{}, nil, fmt.Errorf("inner model is %T, want *rf.Forest", inner)
	}
	nodes, err := forest.AppendNodes(nodes)
	return savedModel{Lo: lo, Hi: hi, Forest: forest.Header()}, nodes, err
}

// ErrFeatureLayout reports a predictor whose feature names are not this
// build's layout, pisa.FeatureNames followed by ArchFeatureNames: its
// forests would index the wrong features and mispredict silently. It is
// a sentinel (match with errors.Is); napel-serve maps it to HTTP 422.
var ErrFeatureLayout = errors.New("napel: feature layout differs from this build's")

// featureLayout returns this build's feature names, index-aligned with
// the vectors Predict assembles. The slice is shared: callers must not
// modify it.
var featureLayout = sync.OnceValue(func() []string {
	return append(append([]string(nil), pisa.FeatureNames()...), ArchFeatureNames()...)
})

// checkFeatureLayout compares names with featureLayout, naming the first
// index that differs.
func checkFeatureLayout(names []string) error {
	want := featureLayout()
	for i := range max(len(names), len(want)) {
		switch {
		case i == len(names) || i == len(want):
			return fmt.Errorf("%w: feature %d: model has %d features, want %d", ErrFeatureLayout, i, len(names), len(want))
		case names[i] != want[i]:
			return fmt.Errorf("%w: feature %d is %q, want %q", ErrFeatureLayout, i, names[i], want[i])
		}
	}
	return nil
}

// Field names of the forms LoadPredictor reads: the JSON names of
// savedPredictor, with the "train_time_ns" builds before version 3
// wrote, and of savedModel.
var (
	predictorFields = []string{"version", "feature_names", "chosen", "train_time_ns", "ipc", "epi"}
	modelFields     = []string{"log_lo", "log_hi", "forest"}
)

// loadedModel is a savedModel as LoadPredictor reads it: the forest
// itself in place of its header.
type loadedModel struct {
	lo, hi float64
	forest *rf.Forest
}

// LoadPredictor parses a predictor written by Save, in format version 3,
// or by an older build in version 2, whose trees are base64 node images
// inside the JSON, or version 1, whose trees are five node arrays; any
// other version fails with ErrBadModelVersion. It reads the JSON in one
// pass (see internal/jsonread), which accepts a subset of what
// encoding/json would, and then, for version 3, the node images after
// it, whose length must be exactly what the node counts call for; only
// whitespace may follow a version 1 or 2 predictor object. A version 3
// forest must hold node counts and an older one must not. Every load
// reads on the caller's goroutine alone: a version 1 or 2 forest's trees
// in document order as the JSON is read, and a version 3 forest in one
// pass over its node images into one node arena. The TrainTime that
// files older than version 3 hold is read back; the out-of-bag errors,
// which no version holds, read back as -1 (Predictor.OOB).
func LoadPredictor(data []byte) (*Predictor, error) {
	p := &Predictor{Chosen: map[Target]string{}}
	version := 0
	var ipc, epi loadedModel
	r := jsonread.New(data)
	err := r.Fields(predictorFields, func(field string) error {
		var err error
		switch field {
		case "version":
			var v int64
			v, err = r.Int(strconv.IntSize)
			version = int(v)
		case "feature_names":
			p.Names, err = readNames(r)
		case "chosen":
			err = readChosen(r, p.Chosen)
		case "train_time_ns":
			var v int64
			v, err = r.Int(64)
			p.TrainTime = time.Duration(v)
		case "ipc":
			err = readModel(r, &ipc)
		default: // "epi"
			err = readModel(r, &epi)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("napel: decoding predictor: %w", err)
	}
	if version < oldPredictorVersion || version > predictorVersion {
		return nil, fmt.Errorf("%w: got %d, want %d to %d", ErrBadModelVersion, version, oldPredictorVersion, predictorVersion)
	}
	if ipc.forest == nil || epi.forest == nil {
		return nil, fmt.Errorf("napel: predictor file is missing a model")
	}
	if err := readTail(r, data, version, ipc.forest, epi.forest); err != nil {
		return nil, fmt.Errorf("napel: decoding predictor: %w", err)
	}
	if err := checkFeatureLayout(p.Names); err != nil {
		return nil, err
	}
	p.IPC = ml.WrapLogModel(ipc.forest, ipc.lo, ipc.hi)
	p.EPI = ml.WrapLogModel(epi.forest, epi.lo, epi.hi)
	return p, nil
}

// readTail reads what follows the predictor object r has read from
// data: in version 3, exactly one '\n' and then the node images of the
// IPC and EPI forests, whose headers r read; in an older version, only
// whitespace.
func readTail(r *jsonread.Reader, data []byte, version int, ipc, epi *rf.Forest) error {
	for _, f := range []*rf.Forest{ipc, epi} {
		if f.AwaitsNodes() != (version == predictorVersion) {
			if version == predictorVersion {
				return errors.New("a version 3 forest must hold node counts")
			}
			return fmt.Errorf("a version %d forest holds node counts", version)
		}
	}
	if version != predictorVersion {
		return r.End()
	}
	off := r.Offset()
	if off == len(data) || data[off] != '\n' {
		return fmt.Errorf("offset %d: want a newline after the version 3 header", off)
	}
	return rf.ReadNodes(data[off+1:], len(featureLayout()), ipc, epi)
}

// readNames reads the feature names. A name equal to the layout's name
// at its index shares the layout's string, so a well-formed file
// allocates only the slice.
func readNames(r *jsonread.Reader) ([]string, error) {
	if r.Null() {
		return nil, nil
	}
	want := featureLayout()
	names := make([]string, 0, len(want))
	err := r.Array(func() error {
		b, err := r.StringBytes()
		if i := len(names); i < len(want) && string(b) == want[i] {
			names = append(names, want[i])
		} else {
			names = append(names, string(b))
		}
		return err
	})
	return names, err
}

// readChosen reads the chosen hyper-parameter names, keyed by
// Target.String(); other keys are ignored.
func readChosen(r *jsonread.Reader, chosen map[Target]string) error {
	if r.Null() {
		return nil
	}
	seen := map[string]bool{}
	return r.Object(func(key []byte) error {
		k := string(key)
		if seen[k] {
			return fmt.Errorf("duplicate chosen key %q", k)
		}
		seen[k] = true
		name, err := r.String()
		for _, t := range []Target{TargetIPC, TargetEPI} {
			if k == t.String() {
				chosen[t] = name
			}
		}
		return err
	})
}

func readModel(r *jsonread.Reader, m *loadedModel) error {
	return r.Fields(modelFields, func(field string) error {
		var err error
		switch field {
		case "log_lo":
			m.lo, err = r.Float()
		case "log_hi":
			m.hi, err = r.Float()
		default: // "forest"
			m.forest, err = rf.ReadForest(r, len(featureLayout()))
		}
		return err
	})
}

// savedTrainingData is the on-disk form of a collected dataset: the
// deterministic payload only. Wall-clock fields (per-sample SimTime, the
// SimTime/ProfileTime aggregates) and the raw profiles are deliberately
// excluded — everything written is a pure function of (kernels, inputs,
// options), which is what makes the serialized bytes identical across
// worker counts and runs.
type savedTrainingData struct {
	Version    int            `json:"version"`
	Names      []string       `json:"feature_names"`
	DoEConfigs map[string]int `json:"doe_configs"`
	Samples    []savedSample  `json:"samples"`
}

type savedSample struct {
	App       string         `json:"app"`
	Input     workload.Input `json:"input"`
	ArchIdx   int            `json:"arch_idx"`
	ActivePEs int            `json:"active_pes"`
	Features  []float64      `json:"features"`
	IPC       float64        `json:"ipc"`
	EPI       float64        `json:"epi"`
}

// SaveTrainingData serializes the dataset as JSON. The output is
// byte-for-byte deterministic: map keys are sorted by the encoder and no
// wall-clock measurement is included.
func SaveTrainingData(w io.Writer, td *TrainingData) error {
	out := savedTrainingData{
		Version:    trainingDataVersion,
		Names:      td.Names,
		DoEConfigs: td.DoEConfigs,
		Samples:    make([]savedSample, len(td.Samples)),
	}
	for i, s := range td.Samples {
		out.Samples[i] = savedSample{
			App:       s.App,
			Input:     s.Input,
			ArchIdx:   s.ArchIdx,
			ActivePEs: s.ActivePEs,
			Features:  s.Features,
			IPC:       s.IPC,
			EPI:       s.EPI,
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// WritePredictorFile atomically publishes the predictor at path
// (temp-file-then-rename, see internal/atomicfile): a reader — the
// napel-serve registry hot-reloading, the model store ingesting — sees
// the old complete file or the new one, never a torn JSON document.
func WritePredictorFile(path string, p *Predictor) error {
	return atomicfile.WriteFile(path, 0o644, p.Save)
}

// LoadPredictorFile reads a predictor file written by Save or
// WritePredictorFile.
func LoadPredictorFile(path string) (*Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadPredictor(data)
}

// WriteTrainingDataFile atomically publishes the dataset at path — the
// checkpoint write of `napel train -resume` and the napel-traind job
// manager, where a crash mid-write must not corrupt the file a restart
// resumes from.
func WriteTrainingDataFile(path string, td *TrainingData) error {
	return atomicfile.WriteFile(path, 0o644, func(w io.Writer) error {
		return SaveTrainingData(w, td)
	})
}

// LoadTrainingDataFile reads a dataset file written by SaveTrainingData
// or WriteTrainingDataFile.
func LoadTrainingDataFile(path string) (*TrainingData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTrainingData(f)
}

// LoadTrainingData reads a dataset previously written by
// SaveTrainingData. Profiles and timing maps come back empty (they are
// not serialized); the result trains and evaluates exactly like the
// original.
func LoadTrainingData(r io.Reader) (*TrainingData, error) {
	var in savedTrainingData
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("napel: decoding training data: %w", err)
	}
	if in.Version != trainingDataVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadModelVersion, in.Version, trainingDataVersion)
	}
	td := &TrainingData{
		Names:       in.Names,
		Profiles:    map[string]*pisa.Profile{},
		DoEConfigs:  map[string]int{},
		SimTime:     map[string]time.Duration{},
		ProfileTime: map[string]time.Duration{},
	}
	for k, v := range in.DoEConfigs {
		td.DoEConfigs[k] = v
	}
	td.Samples = make([]Sample, len(in.Samples))
	for i, s := range in.Samples {
		td.Samples[i] = Sample{
			App:       s.App,
			Input:     s.Input,
			ArchIdx:   s.ArchIdx,
			ActivePEs: s.ActivePEs,
			Features:  s.Features,
			IPC:       s.IPC,
			EPI:       s.EPI,
		}
	}
	return td, nil
}
