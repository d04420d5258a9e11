package napel

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"napel/internal/workload"
)

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	opts := quickOptions()
	kernels := quickKernels(t, "atax", "mvt")
	td, err := Collect(kernels, opts)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Train(td, 42)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Predictions must be bit-identical after the round trip.
	k := kernels[0]
	in := workload.Scale(k, workload.TestInput(k), opts.TestScaleFactor, opts.TestMaxIters)
	prof, err := ProfileKernel(k, in, opts.ProfileBudget)
	if err != nil {
		t.Fatal(err)
	}
	a := pred.Predict(prof, opts.RefArch, in.Threads())
	b := loaded.Predict(prof, opts.RefArch, in.Threads())
	if a != b {
		t.Fatalf("round trip changed predictions:\n%+v\n%+v", a, b)
	}
	if loaded.Chosen[TargetIPC] != pred.Chosen[TargetIPC] {
		t.Fatal("chosen hyper-parameters lost")
	}
	if len(loaded.Names) != len(pred.Names) {
		t.Fatal("feature names lost")
	}
	// Save -> LoadPredictor -> Save is byte-identical, so a model's
	// content version survives a load.
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("Save after LoadPredictor changed the bytes")
	}
}

// TestSaveIsDeterministic: two trainings on the same data with the same
// seed save to the same bytes, so they serve under one content version.
// No wall-clock field, such as the training time, enters the file.
func TestSaveIsDeterministic(t *testing.T) {
	td, err := Collect(quickKernels(t, "atax"), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var saved [2][]byte
	for i := range saved {
		pred, err := Train(td, 42)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved[i] = buf.Bytes()
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("two trainings with one seed saved different bytes:\n%.300s\n%.300s", saved[0], saved[1])
	}
	if bytes.Contains(saved[0], []byte("train_time")) {
		t.Fatal("the saved model holds a training time")
	}
}

// TestTrainWithDefaultSavesTrainBytes: Train is TrainWith on the default
// forest, so napel-traind's spec-pinned path and the CLI's train the
// same model for the same data and seed.
func TestTrainWithDefaultSavesTrainBytes(t *testing.T) {
	td, err := Collect(quickKernels(t, "atax"), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var saved [2]bytes.Buffer
	for i, train := range []func() (*Predictor, error){
		func() (*Predictor, error) { return Train(td, 42) },
		func() (*Predictor, error) { return TrainWith(td, DefaultRFTrainer(), 42) },
	} {
		pred, err := train()
		if err != nil {
			t.Fatal(err)
		}
		if err := pred.Save(&saved[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Fatal("Train and TrainWith(DefaultRFTrainer()) saved different bytes")
	}
}

// TestLoadedPredictorReportsNoOOB: a model file stores no out-of-bag
// error, so a predictor loaded from any version reports -1 for both
// targets, as for a model without one, not the perfect 0 of an unset
// field.
func TestLoadedPredictorReportsNoOOB(t *testing.T) {
	p := synthPredictor(t, 8, 40)
	if ipc, epi := p.OOB(); ipc < 0 || epi < 0 {
		t.Fatalf("the trained predictor reports OOB %v, %v", ipc, epi)
	}
	for version, data := range [][]byte{savedBytesV1(t, p), savedBytesV2(t, p), savedBytes(t, p)} {
		loaded, err := LoadPredictor(data)
		if err != nil {
			t.Fatal(err)
		}
		if ipc, epi := loaded.OOB(); ipc != -1 || epi != -1 {
			t.Errorf("version %d: the loaded predictor reports OOB %v, %v, want -1, -1", version+1, ipc, epi)
		}
	}
}

func TestLoadPredictorRejectsGarbage(t *testing.T) {
	if _, err := LoadPredictor([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadPredictor([]byte(`{"version":99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := LoadPredictor([]byte(`{"version":1,"feature_names":[]}`)); err == nil {
		t.Fatal("missing models accepted")
	}
	// Only whitespace may follow a version 1 or 2 predictor object, and
	// nothing may follow a version 3 file's last node: a model file with
	// bytes appended, or two concatenated, must not load as the first
	// model.
	p := synthPredictor(t, 2, 8)
	for _, v := range []struct {
		name       string
		model      []byte
		whitespace bool // whether trailing whitespace loads
	}{{"v1", savedBytesV1(t, p), true}, {"v2", savedBytesV2(t, p), true}, {"v3", savedBytes(t, p), false}} {
		_, err := LoadPredictor(append(append([]byte(nil), v.model...), " \n\t"...))
		if v.whitespace && err != nil {
			t.Fatalf("%s: trailing whitespace rejected: %v", v.name, err)
		}
		tails := []string{"garbage", "{}", string(v.model)}
		if !v.whitespace {
			tails = append(tails, " \n\t", "\n", " ", "\x00")
		}
		for _, tail := range tails {
			if _, err := LoadPredictor(append(append([]byte(nil), v.model...), tail...)); err == nil {
				t.Fatalf("%s: model followed by %.20q accepted", v.name, tail)
			}
		}
	}
}

// TestLoadPredictorTruncated: every strict prefix class of a saved
// model — empty, cut mid-token, cut mid-forest in the header, at the
// header's end, before the first node, mid-node, missing its last two
// bytes — must fail without matching the version sentinel, because a
// truncated model is corruption, not a format upgrade.
func TestLoadPredictorTruncated(t *testing.T) {
	full := savedBytes(t, synthPredictor(t, 2, 8))
	header := bytes.IndexByte(full, '\n')
	midForest := bytes.Index(full, []byte(`"node_counts":[`)) + 16
	for _, cut := range []int{0, 1, 5, midForest, header, header + 1, header + 9, len(full) / 2, len(full) - 2} {
		_, err := LoadPredictor(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
		if errors.Is(err, ErrBadModelVersion) {
			t.Fatalf("truncation at %d reported as version mismatch: %v", cut, err)
		}
	}
	if _, err := LoadPredictor(full); err != nil {
		t.Fatalf("untruncated bytes rejected: %v", err)
	}
}

// TestLoadPredictorFeatureLayout: a model saved under a different
// layout of the same size must not load, and the error must name the
// first index that differs.
func TestLoadPredictorFeatureLayout(t *testing.T) {
	p := synthPredictor(t, 2, 8)
	p.Names[3], p.Names[7] = p.Names[7], p.Names[3]
	_, err := LoadPredictor(savedBytes(t, p))
	if !errors.Is(err, ErrFeatureLayout) {
		t.Fatalf("swapped names: error %v does not match ErrFeatureLayout", err)
	}
	if !strings.Contains(err.Error(), "feature 3 ") || errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("swapped names: error %q does not name index 3 alone", err)
	}
	p.Names = p.Names[:len(p.Names)-1]
	if _, err := LoadPredictor(savedBytes(t, p)); !errors.Is(err, ErrFeatureLayout) {
		t.Fatalf("short layout: error %v does not match ErrFeatureLayout", err)
	}
}

// TestLoadPredictorVersionSentinel pins the error contract napel-serve
// relies on: a wrong format version matches ErrBadModelVersion, while
// other load failures (corruption, truncation) do not.
func TestLoadPredictorVersionSentinel(t *testing.T) {
	_, err := LoadPredictor([]byte(`{"version":99}`))
	if !errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("version mismatch error %v does not match ErrBadModelVersion", err)
	}
	if !strings.Contains(err.Error(), "99") {
		t.Fatalf("error %q does not name the offending version", err)
	}
	_, err = LoadPredictor([]byte("not json"))
	if err == nil || errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("garbage error %v must not match ErrBadModelVersion", err)
	}
	_, err = LoadPredictor([]byte(`{"version":1,"feature_names":[]}`))
	if err == nil || errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("missing-model error %v must not match ErrBadModelVersion", err)
	}
}

// TestLoadTrainingDataVersionMismatch pins the version-gate contract of
// the checkpoint format: an unsupported version matches
// ErrBadModelVersion (so napel-traind can tell "old daemon wrote this"
// from corruption) and names both versions.
func TestLoadTrainingDataVersionMismatch(t *testing.T) {
	_, err := LoadTrainingData(strings.NewReader(`{"version":99,"feature_names":[],"samples":[]}`))
	if !errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("version mismatch error %v does not match ErrBadModelVersion", err)
	}
	if !strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), "1") {
		t.Fatalf("error %q does not name the versions", err)
	}
	_, err = LoadTrainingData(strings.NewReader(`{"version":0}`))
	if !errors.Is(err, ErrBadModelVersion) {
		t.Fatalf("missing-version error %v does not match ErrBadModelVersion", err)
	}
}

// TestLoadTrainingDataTruncated: every strict prefix class of a valid
// file — empty, cut mid-token, cut mid-stream — must error without
// matching the version sentinel, because a truncated checkpoint is
// corruption, not a format upgrade.
func TestLoadTrainingDataTruncated(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTrainingData(&buf, td); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Training data keeps format version 1 while predictor files move on.
	if !bytes.HasPrefix(full, []byte(`{"version":1,`)) {
		t.Fatalf("training data saved as %.40q, want version 1", full)
	}
	for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 2} {
		_, err := LoadTrainingData(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
		if errors.Is(err, ErrBadModelVersion) {
			t.Fatalf("truncation at %d reported as version mismatch: %v", cut, err)
		}
	}
	if _, err := LoadTrainingData(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated bytes rejected: %v", err)
	}
}

// TestTrainingDataFileRoundTrip covers the atomic file helpers the
// lifecycle daemon checkpoints through.
func TestTrainingDataFileRoundTrip(t *testing.T) {
	opts := quickOptions()
	td, err := Collect(quickKernels(t, "atax"), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteTrainingDataFile(path, td); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrainingDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Samples) != len(td.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(loaded.Samples), len(td.Samples))
	}
	if _, err := LoadTrainingDataFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	pred, err := Train(td, 42)
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "model.json")
	if err := WritePredictorFile(mpath, pred); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(mpath); err != nil {
		t.Fatal(err)
	}
}

func TestSaveRejectsForeignModels(t *testing.T) {
	p := &Predictor{IPC: nil, EPI: nil}
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		t.Fatal("nil models accepted")
	}
}
