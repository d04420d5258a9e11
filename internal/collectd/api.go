package collectd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"napel/internal/httpd"
	"napel/internal/napel"
	"napel/internal/obs"
)

// maxCompleteBytes bounds a /v1/complete body: a payload is one sample
// per training architecture at ~400 features each, well under a
// megabyte even for wide architecture sweeps.
const maxCompleteBytes = 8 << 20

// Lease is the coordinator's answer to a work request: a claimed unit
// spec plus the heartbeat budget.
type Lease struct {
	ID        string         `json:"id"`
	TTLMillis int64          `json:"ttl_ms"`
	Spec      napel.UnitSpec `json:"spec"`
}

// leaseRequest asks for work. Tags advertise the worker's capabilities
// (e.g. architecture families it can simulate); the coordinator only
// leases units whose required tags are all present, and registers the
// worker under these tags in its membership set.
type leaseRequest struct {
	Worker string   `json:"worker"`
	Tags   []string `json:"tags,omitempty"`
}

// heartbeatRequest extends the worker's live leases.
type heartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []string `json:"leases"`
}

// heartbeatResponse lists the leases the coordinator no longer
// recognizes; the worker aborts those executions.
type heartbeatResponse struct {
	Unknown []string `json:"unknown"`
}

// completeRequest resolves a lease: either Payload+SHA256 (success) or
// Error (the worker's execution failed). Payload is kept as raw bytes
// so the hash is computed over exactly what the worker hashed.
type completeRequest struct {
	Worker  string          `json:"worker"`
	Lease   string          `json:"lease"`
	Payload json.RawMessage `json:"payload,omitempty"`
	SHA256  string          `json:"sha256,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// RegisterAPI mounts the coordinator's worker-facing protocol on mux:
//
//	POST /v1/lease      claim the oldest pending unit (204 = no work)
//	POST /v1/heartbeat  extend live leases, learn which were revoked
//	POST /v1/complete   deliver a unit payload or execution error
//	GET  /v1/collect    coordinator statistics
//
// napel-traind mounts this next to its job/store API so one listener
// serves both operators and workers.
func RegisterAPI(mux *http.ServeMux, c *Coordinator) {
	// Each handler joins the caller's trace when the request carries a
	// traceparent header (napel-worker injects one per unit), so a lease
	// grant and its completion appear under the worker's "worker.unit"
	// span in /debug/fleet. The spans go to the tracer SetTracer
	// installed before mounting.
	tracer := c.Tracer()
	mux.HandleFunc("POST /v1/lease", obs.Traced(tracer, "collectd.lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := decodeBody(r, &req); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Worker == "" {
			httpd.WriteError(w, http.StatusBadRequest, "missing worker id")
			return
		}
		span := obs.SpanFromContext(r.Context())
		span.SetAttr("worker", req.Worker)
		l, ok := c.Lease(req.Worker, req.Tags)
		if !ok {
			span.SetAttr("result", "no_work")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		span.SetAttr("lease", l.ID)
		span.SetAttr("key", l.Spec.Key)
		httpd.WriteJSON(w, http.StatusOK, l)
	}))

	mux.HandleFunc("POST /v1/heartbeat", obs.Traced(tracer, "collectd.heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := decodeBody(r, &req); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Worker == "" {
			httpd.WriteError(w, http.StatusBadRequest, "missing worker id")
			return
		}
		obs.SpanFromContext(r.Context()).SetAttr("worker", req.Worker)
		unknown := c.Heartbeat(req.Worker, req.Leases)
		httpd.WriteJSON(w, http.StatusOK, heartbeatResponse{Unknown: unknown})
	}))

	mux.HandleFunc("POST /v1/complete", obs.Traced(tracer, "collectd.complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if err := decodeBody(r, &req); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Worker == "" || req.Lease == "" {
			httpd.WriteError(w, http.StatusBadRequest, "missing worker or lease id")
			return
		}
		if req.Error == "" && (len(req.Payload) == 0 || req.SHA256 == "") {
			httpd.WriteError(w, http.StatusBadRequest, "complete needs either an error or a payload with its sha256")
			return
		}
		span := obs.SpanFromContext(r.Context())
		span.SetAttr("worker", req.Worker)
		span.SetAttr("lease", req.Lease)
		err := c.Complete(req.Worker, req.Lease, []byte(req.Payload), req.SHA256, req.Error)
		switch {
		case errors.Is(err, ErrUnknownLease):
			span.SetError(err)
			httpd.WriteError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrPayloadHash):
			span.SetError(err)
			httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		case err != nil:
			span.SetError(err)
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			httpd.WriteJSON(w, http.StatusOK, map[string]bool{"accepted": true})
		}
	}))

	mux.HandleFunc("GET /v1/collect", func(w http.ResponseWriter, r *http.Request) {
		httpd.WriteJSON(w, http.StatusOK, c.Stats())
	})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxCompleteBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}
