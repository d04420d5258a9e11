package lifecycle

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"regexp"

	"napel/internal/httpd"
	"napel/internal/obs"
	"napel/internal/resilience/faultpoint"
)

// fpStoreBlob tears a blob response mid-stream under a ModePartial
// chaos rule — the over-the-wire analogue of a torn disk write. The
// puller's sha256 re-verification must reject the truncated bytes and
// keep its last-good generation.
const fpStoreBlob = "store.blob"

// Path parameters are validated against the exact shapes the store
// writes, so the HTTP layer can never be steered at arbitrary files.
var (
	blobHashRe   = regexp.MustCompile(`^sha256-[0-9a-f]{64}$`)
	manifestIDRe = regexp.MustCompile(`^m-[0-9]{1,12}$`)
)

// RegisterStoreAPI mounts the read-only model-distribution API on mux:
//
//	GET /v1/store/current          promoted manifest (404 before first promotion)
//	GET /v1/store/manifests/{id}   one manifest by ID
//	GET /v1/store/blobs/{hash}     model bytes by content address
//
// This is the server half of serve.StoreSource: a replica resolves the
// current lineage to a content address, pulls the named blob, and
// re-hashes what it received. Blobs are read through Store.ReadModel,
// so server-side corruption is quarantined at read time and never
// leaves the machine; what corruption can do is happen in flight —
// hence the client-side check, exercised by the store.blob fault point.
//
// tracer may be nil (spans become no-ops). When set, each pull request
// opens a server span joined — via the traceparent header StoreSource
// injects — to the replica's "store.pull" trace, so one model
// distribution reads as a single cross-process tree in /debug/fleet.
func RegisterStoreAPI(mux *http.ServeMux, s *Store, tracer *obs.Tracer) {
	mux.HandleFunc("GET /v1/store/current", obs.Traced(tracer, "store.serve.current", func(w http.ResponseWriter, r *http.Request) {
		m, err := s.Current()
		switch {
		case errors.Is(err, ErrNoCurrent):
			httpd.WriteError(w, http.StatusNotFound, err.Error())
		case err != nil:
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			httpd.WriteJSON(w, http.StatusOK, m)
		}
	}))

	mux.HandleFunc("GET /v1/store/manifests/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !manifestIDRe.MatchString(id) {
			httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("malformed manifest id %q", id))
			return
		}
		m, err := s.GetManifest(id)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			httpd.WriteError(w, http.StatusNotFound, fmt.Sprintf("no manifest %s", id))
		case err != nil:
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		default:
			httpd.WriteJSON(w, http.StatusOK, m)
		}
	})

	mux.HandleFunc("GET /v1/store/blobs/{hash}", obs.Traced(tracer, "store.serve.blob", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !blobHashRe.MatchString(hash) {
			httpd.WriteError(w, http.StatusBadRequest, fmt.Sprintf("malformed blob address %q", hash))
			return
		}
		obs.SpanFromContext(r.Context()).SetAttr("blob", hash)
		data, err := s.ReadModel(hash)
		switch {
		case errors.Is(err, ErrCorruptBlob):
			// The blob just moved to quarantine/; a republish of the same
			// training run restores clean bytes under the same address,
			// so this is retryable.
			httpd.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		case errors.Is(err, fs.ErrNotExist):
			httpd.WriteError(w, http.StatusNotFound, fmt.Sprintf("no blob %s", hash))
			return
		case err != nil:
			httpd.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Content-Address", hash)
		// No Content-Length on purpose: a torn write under chunked
		// encoding yields a well-formed-looking truncated body, which is
		// the hard case the puller's sha256 check exists for.
		out := faultpoint.WrapWriter(fpStoreBlob, w)
		out.Write(data)
	}))
}

// NewStoreHandler returns a standalone handler serving only the store
// distribution API — for tests, or for exposing distribution on a
// different listener than the admin API.
func NewStoreHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	RegisterStoreAPI(mux, s, nil)
	return mux
}
