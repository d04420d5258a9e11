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

// savedPredictor is the on-disk form of a trained Predictor: the two
// random forests with their log-space clamp ranges, plus the feature
// names for sanity checking at load time. Only the shipped NAPEL
// configuration (log-target random forests) is serializable; the
// Figure 5 baselines are evaluation-only.
type savedPredictor struct {
	Version   int               `json:"version"`
	Names     []string          `json:"feature_names"`
	Chosen    map[string]string `json:"chosen,omitempty"`
	TrainTime time.Duration     `json:"train_time_ns"`
	IPC       savedModel        `json:"ipc"`
	EPI       savedModel        `json:"epi"`
}

type savedModel struct {
	Lo     float64    `json:"log_lo"`
	Hi     float64    `json:"log_hi"`
	Forest *rf.Forest `json:"forest"`
}

// Format versions, bumped on incompatible changes. A predictor file of
// version 2 stores each tree as a node image (see rf.Forest.MarshalJSON);
// version 1 stored five node arrays per tree and still loads. Training
// data files are unchanged since version 1.
const (
	predictorVersion    = 2
	oldPredictorVersion = 1 // the oldest LoadPredictor reads
	trainingDataVersion = 1
)

// ErrBadModelVersion reports a predictor file whose format version this
// build cannot read. It is a sentinel (match with errors.Is) so that
// callers can distinguish "valid file, wrong version" from plain
// corruption — napel-serve maps it to HTTP 422 instead of 500.
var ErrBadModelVersion = errors.New("napel: unsupported predictor format version")

// Save serializes the predictor as JSON, in format version 2: each tree
// a base64 string of its nodes' resident 16-byte layout. It fails if the
// models are not log-target random forests (the only configuration Train
// produces).
func (p *Predictor) Save(w io.Writer) error {
	ipc, err := saveModel(p.IPC)
	if err != nil {
		return fmt.Errorf("napel: saving IPC model: %w", err)
	}
	epi, err := saveModel(p.EPI)
	if err != nil {
		return fmt.Errorf("napel: saving energy model: %w", err)
	}
	chosen := map[string]string{}
	for t, name := range p.Chosen {
		chosen[t.String()] = name
	}
	enc := json.NewEncoder(w)
	return enc.Encode(savedPredictor{
		Version:   predictorVersion,
		Names:     p.Names,
		Chosen:    chosen,
		TrainTime: p.TrainTime,
		IPC:       ipc,
		EPI:       epi,
	})
}

func saveModel(m ml.Model) (savedModel, error) {
	inner, lo, hi, ok := ml.UnwrapLogModel(m)
	if !ok {
		return savedModel{}, fmt.Errorf("model is not a log-target model")
	}
	forest, ok := inner.(*rf.Forest)
	if !ok {
		return savedModel{}, fmt.Errorf("inner model is %T, want *rf.Forest", inner)
	}
	return savedModel{Lo: lo, Hi: hi, Forest: forest}, nil
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

// Field names of the Save form: the JSON names of savedPredictor and
// savedModel.
var (
	predictorFields = []string{"version", "feature_names", "chosen", "train_time_ns", "ipc", "epi"}
	modelFields     = []string{"log_lo", "log_hi", "forest"}
)

// LoadPredictor parses a predictor written by Save, in format version 2,
// or by an older build in version 1, whose trees are five node arrays;
// any other version fails with ErrBadModelVersion. It reads data in one
// pass, the trees of each forest in parallel, and accepts a subset of
// what encoding/json would (see internal/jsonread): in particular only
// whitespace may follow the predictor object.
func LoadPredictor(data []byte) (*Predictor, error) {
	p := &Predictor{Chosen: map[Target]string{}}
	version := 0
	var ipc, epi savedModel
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
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("napel: decoding predictor: %w", err)
	}
	if version != predictorVersion && version != oldPredictorVersion {
		return nil, fmt.Errorf("%w: got %d, want %d or %d", ErrBadModelVersion, version, oldPredictorVersion, predictorVersion)
	}
	if ipc.Forest == nil || epi.Forest == nil {
		return nil, fmt.Errorf("napel: predictor file is missing a model")
	}
	if err := checkFeatureLayout(p.Names); err != nil {
		return nil, err
	}
	p.IPC = ml.WrapLogModel(ipc.Forest, ipc.Lo, ipc.Hi)
	p.EPI = ml.WrapLogModel(epi.Forest, epi.Lo, epi.Hi)
	return p, nil
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

func readModel(r *jsonread.Reader, m *savedModel) error {
	return r.Fields(modelFields, func(field string) error {
		var err error
		switch field {
		case "log_lo":
			m.Lo, err = r.Float()
		case "log_hi":
			m.Hi, err = r.Float()
		default: // "forest"
			m.Forest, err = rf.ReadForest(r, len(featureLayout()))
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
