package lifecycle

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func apiGet(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func apiPost(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestAPI(t *testing.T) {
	m := newTestManager(t, t.TempDir(), nil)
	stop := runManager(m)
	defer stop()
	srv := httptest.NewServer(NewAPIHandler(m))
	defer srv.Close()

	if code := apiGet(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz -> %d", code)
	}

	// Bad submissions: invalid JSON, unknown fields, empty spec.
	if code := apiPost(t, srv.URL+"/v1/jobs", "{", nil); code != http.StatusBadRequest {
		t.Fatalf("invalid JSON -> %d", code)
	}
	if code := apiPost(t, srv.URL+"/v1/jobs", `{"kernels":["atax"],"bogus":1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field -> %d", code)
	}
	if code := apiPost(t, srv.URL+"/v1/jobs", `{}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty spec -> %d", code)
	}
	if code := apiPost(t, srv.URL+"/v1/jobs", `{"kernels":["`+strings.Repeat("a", maxSpecBytes)+`"]}`, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("spec past %d bytes -> %d", maxSpecBytes, code)
	}

	// Submit the quick job and drive it to promotion via the API alone.
	specJSON, _ := json.Marshal(quickSpec())
	var job Job
	if code := apiPost(t, srv.URL+"/v1/jobs", string(specJSON), &job); code != http.StatusAccepted {
		t.Fatalf("submit -> %d", code)
	}
	if job.ID == "" || job.State != StateQueued {
		t.Fatalf("submitted job %+v", job)
	}

	if code := apiGet(t, srv.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job -> %d", code)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		var got Job
		if code := apiGet(t, srv.URL+"/v1/jobs/"+job.ID, &got); code != http.StatusOK {
			t.Fatalf("job status -> %d", code)
		}
		if got.State.Terminal() {
			if got.State != StatePromoted {
				t.Fatalf("job finished %s: %s", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if code := apiGet(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("list -> %d, %d jobs", code, len(list.Jobs))
	}

	var store struct {
		Current   *Manifest   `json:"current"`
		Manifests []*Manifest `json:"manifests"`
		History   []string    `json:"history"`
		ModelPath string      `json:"model_path"`
	}
	if code := apiGet(t, srv.URL+"/v1/store", &store); code != http.StatusOK {
		t.Fatalf("store -> %d", code)
	}
	if store.Current == nil || len(store.Manifests) != 1 || len(store.History) != 1 || store.ModelPath == "" {
		t.Fatalf("store state %+v", store)
	}

	// Rollback with a single promotion is a conflict.
	if code := apiPost(t, srv.URL+"/v1/store/rollback", "", nil); code != http.StatusConflict {
		t.Fatalf("rollback with one promotion -> %d", code)
	}

	// Canceling the finished job is a conflict; unknown job a 404.
	if code := apiPost(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", "", nil); code != http.StatusConflict {
		t.Fatalf("cancel finished -> %d", code)
	}
	if code := apiPost(t, srv.URL+"/v1/jobs/nope/cancel", "", nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown -> %d", code)
	}

	// Metrics render in exposition format with the promised series.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"napel_traind_queue_depth",
		"napel_traind_jobs_running",
		"napel_traind_jobs_submitted_total 1",
		fmt.Sprintf("napel_traind_jobs_finished_total{state=%q} 1", StatePromoted),
		"napel_traind_job_duration_seconds_count 1",
		"napel_traind_promotions_total 1",
		"napel_traind_checkpoint_age_seconds",
		"napel_traind_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
