package lifecycle

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"napel/internal/collectd"
	"napel/internal/httpd"
	"napel/internal/obs"
)

// maxSpecBytes bounds a job-submission body.
const maxSpecBytes = 1 << 20

// NewAPIHandler exposes the manager's admin API:
//
//	POST /v1/jobs               submit a JobSpec, returns the Job
//	GET  /v1/jobs               list jobs
//	GET  /v1/jobs/{id}          one job's status
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /v1/store              store state: current model + manifests
//	POST /v1/store/rollback     re-promote the previous model
//	GET  /v1/store/current      promoted manifest (model distribution)
//	GET  /v1/store/manifests/{id}  one manifest
//	GET  /v1/store/blobs/{hash}    model bytes by content address
//	GET  /healthz               liveness
//
// When the manager runs a collectd coordinator, the worker protocol
// (POST /v1/lease, /v1/heartbeat, /v1/complete; GET /v1/collect) is
// mounted on the same mux, so one listener serves operators and
// napel-worker processes alike.
//
//	GET  /metrics               Prometheus text exposition
//	GET  /debug/traces          recent job/engine spans, grouped by trace
//	GET  /debug/pprof/...       runtime profiling
//	GET  /debug/runtime         goroutine/GC/heap snapshot
func NewAPIHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"jobs":           len(m.Jobs()),
			"queue_depth":    m.QueueDepth(),
			"uptime_seconds": time.Since(m.o.start).Seconds(),
		})
	})

	mux.Handle("GET /metrics", m.o.reg.Handler())

	obs.MountDebug(mux, m.o.tracer)

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
			return
		}
		job, err := m.Submit(spec)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "queue full") {
				status = http.StatusServiceUnavailable
			}
			httpd.WriteError(w, status, err.Error())
			return
		}
		httpd.WriteJSON(w, http.StatusAccepted, job)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteJSON(w, http.StatusOK, map[string]any{"jobs": m.Jobs()})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpd.WriteError(w, http.StatusNotFound, "no such job")
			return
		}
		httpd.WriteJSON(w, http.StatusOK, job)
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := m.Cancel(id); err != nil {
			status := http.StatusConflict
			if strings.Contains(err.Error(), "no job") {
				status = http.StatusNotFound
			}
			httpd.WriteError(w, status, err.Error())
			return
		}
		job, _ := m.Get(id)
		httpd.WriteJSON(w, http.StatusOK, job)
	})

	mux.HandleFunc("GET /v1/store", func(w http.ResponseWriter, r *http.Request) {
		manifests, err := m.store.List()
		if err != nil {
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		history, err := m.store.History()
		if err != nil {
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp := map[string]any{
			"manifests":  manifests,
			"history":    history,
			"model_path": m.store.CurrentModelPath(),
		}
		current, err := m.store.Current()
		switch {
		case err == nil:
			resp["current"] = current
		case errors.Is(err, ErrNoCurrent):
			resp["current"] = nil
		default:
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		httpd.WriteJSON(w, http.StatusOK, resp)
	})

	// The model-distribution routes replicas pull from (StoreSource).
	RegisterStoreAPI(mux, m.store, m.o.tracer)

	// The worker-facing collection protocol, when a coordinator runs.
	// The manager's tracer is handed over so lease/complete handler
	// spans land in the same ring the store-pull spans do.
	if m.cfg.Coordinator != nil {
		m.cfg.Coordinator.SetTracer(m.o.tracer)
		collectd.RegisterAPI(mux, m.cfg.Coordinator)
	}

	mux.HandleFunc("POST /v1/store/rollback", func(w http.ResponseWriter, r *http.Request) {
		manifest, err := m.store.Rollback()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrNoRollback) {
				status = http.StatusConflict
			}
			httpd.WriteError(w, status, err.Error())
			return
		}
		httpd.WriteJSON(w, http.StatusOK, map[string]any{"current": manifest})
	})

	return mux
}
