package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"napel/internal/napel"
)

func TestRegistryLoadAndGet(t *testing.T) {
	f := fixture(t)
	reg, err := NewRegistry(map[string]string{
		DefaultModelName: f.modelA,
		"candidate":      f.modelB,
	})
	if err != nil {
		t.Fatal(err)
	}

	def, ok := reg.Get("")
	if !ok || def.Name != DefaultModelName {
		t.Fatalf("empty name resolved to %+v, %v", def, ok)
	}
	cand, ok := reg.Get("candidate")
	if !ok {
		t.Fatal("candidate missing")
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("unknown model resolved")
	}
	if def.Version == cand.Version {
		t.Fatal("different weights share a version")
	}
	if len(def.Version) != 16 {
		t.Fatalf("version %q is not a 16-hex content hash", def.Version)
	}
	if list := reg.List(); len(list) != 2 || list[0].Name != "candidate" {
		t.Fatalf("list = %+v", list)
	}
	if reg.Reloads() != 1 {
		t.Fatalf("reloads = %d, want 1", reg.Reloads())
	}
}

func TestRegistrySingleModelIsDefault(t *testing.T) {
	f := fixture(t)
	reg, err := NewRegistry(map[string]string{"only": f.modelA})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := reg.Get("")
	if !ok || m.Name != "only" {
		t.Fatalf("sole model not the default: %+v, %v", m, ok)
	}
}

func TestRegistryReloadSwapsVersion(t *testing.T) {
	f := fixture(t)
	path := filepath.Join(t.TempDir(), "model.json")
	mustCopy(t, f.modelA, path)
	reg, err := NewRegistry(map[string]string{DefaultModelName: path})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := reg.Get("")

	mustCopy(t, f.modelB, path)
	if _, _, err := reg.install(true); err != nil {
		t.Fatal(err)
	}
	v2, _ := reg.Get("")
	if v1.Version == v2.Version {
		t.Fatal("reload kept the old version for new weights")
	}
}

// TestRegistryFailedReloadKeepsServing is the hot-reload safety
// property: a bad file on disk must not take down the old generation.
func TestRegistryFailedReloadKeepsServing(t *testing.T) {
	f := fixture(t)
	path := filepath.Join(t.TempDir(), "model.json")
	mustCopy(t, f.modelA, path)
	reg, err := NewRegistry(map[string]string{DefaultModelName: path})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reg.Get("")

	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = reg.install(true)
	if !errors.Is(err, napel.ErrBadModelVersion) {
		t.Fatalf("reload error %v does not wrap ErrBadModelVersion", err)
	}
	got, ok := reg.Get("")
	if !ok || got.Version != want.Version || got.Predictor == nil {
		t.Fatalf("old generation lost after failed reload: %+v", got)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.install(true); err == nil {
		t.Fatal("reload of missing file succeeded")
	}
	if _, ok := reg.Get(""); !ok {
		t.Fatal("old generation lost after missing-file reload")
	}
}

func TestRegistryRejectsEmptyAndBadBoot(t *testing.T) {
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := NewRegistry(map[string]string{"m": "/nonexistent/model.json"}); err == nil {
		t.Fatal("missing boot model accepted")
	}
}

func mustCopy(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corpusModel returns the model file of a seed of internal/napel's
// FuzzLoadPredictor corpus, checking its format version. The "model"
// seed holds a predictor in format version 1, five node arrays per tree,
// and the "v2-model" seed the same predictor in version 2, a base64 node
// image per tree, as builds before version 3 wrote them.
func corpusModel(t *testing.T, name string, version int) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "napel", "testdata", "fuzz", "FuzzLoadPredictor", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(data, fmt.Sprintf(`{"version":%d,`, version)) {
		t.Fatalf("%s seed is not version %d: %.40q", name, version, data)
	}
	return []byte(data)
}

// TestVersion1AndItsResaveServeAlike: one model in format versions 1 and
// 2 and its version 3 re-save, each installed through the registry,
// answer the same /v1/predict with the same bytes but for model_version,
// which is each file's content version.
func TestVersion1AndItsResaveServeAlike(t *testing.T) {
	f := fixture(t)
	v1 := corpusModel(t, "model", 1)
	p, err := napel.LoadPredictor(v1)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := p.Save(&v3); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v3.Bytes(), []byte(`{"version":3,`)) {
		t.Fatalf("re-save is not version 3: %.40q", v3.Bytes())
	}
	files := [][]byte{v1, corpusModel(t, "v2-model", 2), v3.Bytes()}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, files[0], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ModelPaths: map[string]string{DefaultModelName: path}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := makeRequest(f, WireArch{}, f.threads)
	answer := func() (rest []byte, version string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fields["model_version"], &version); err != nil {
			t.Fatal(err)
		}
		delete(fields, "model_version")
		rest, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return rest, version
	}
	var first []byte
	versions := map[string]bool{}
	for i, data := range files {
		if i > 0 {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if resp, body := postJSON(t, ts.URL+"/v1/models/reload", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
			}
		}
		got, version := answer()
		if version != ContentVersion(data) || versions[version] {
			t.Fatalf("version %d file serves model version %s, want its own content version %s", i+1, version, ContentVersion(data))
		}
		versions[version] = true
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("answers differ:\nversion 1: %s\nversion %d: %s", first, i+1, got)
		}
	}
}
