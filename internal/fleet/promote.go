package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"napel/internal/obs"
)

// ReplicaReloadResult is one replica's leg of a rolling reload.
type ReplicaReloadResult struct {
	URL          string `json:"url"`
	OK           bool   `json:"ok"`
	ModelVersion string `json:"model_version,omitempty"`
	Error        string `json:"error,omitempty"`
}

// RollingReload hot-installs the currently promoted model across the
// fleet one replica at a time: POST /v1/models/reload, then confirm the
// replica is back on /readyz with the expected version before touching
// the next one. The first replica's post-reload version becomes the
// rollout target; any divergence aborts the roll so a half-published
// lineage cannot split the fleet. Because at most one replica is
// reloading at any instant, the remaining N-1 keep answering and the
// gate's failover path covers the one in flight — zero downtime from
// the client's point of view.
func (g *Gate) RollingReload(ctx context.Context) ([]ReplicaReloadResult, error) {
	g.rollMu.Lock()
	defer g.rollMu.Unlock()

	reps := g.replicaList()
	results := make([]ReplicaReloadResult, 0, len(reps))
	target := ""
	for _, rep := range reps {
		res := ReplicaReloadResult{URL: rep.url}
		version, err := g.reloadReplica(ctx, rep)
		if err != nil {
			res.Error = err.Error()
			results = append(results, res)
			return results, fmt.Errorf("fleet: rolling reload aborted at %s: %w", rep.url, err)
		}
		res.OK, res.ModelVersion = true, version
		results = append(results, res)
		if target == "" {
			target = version
		} else if version != target {
			res.OK = false
			results[len(results)-1] = res
			return results, fmt.Errorf(
				"fleet: rolling reload aborted: %s installed %s, fleet target is %s",
				rep.url, version, target)
		}
	}
	g.CheckReplicas(ctx)
	g.o.rollouts.Inc()
	return results, nil
}

// reloadReplica reloads one replica and waits for its /readyz to
// confirm the install, returning the served default-model version.
func (g *Gate) reloadReplica(ctx context.Context, rep *replica) (string, error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		rep.url+"/v1/models/reload", bytes.NewReader([]byte("{}")))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHTTP(rctx, req)
	resp, err := g.client.Do(req)
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("reload: HTTP %d: %s", resp.StatusCode, truncate(body, 200))
	}

	// The reload endpoint is synchronous, so one confirming probe is
	// usually enough; poll briefly to absorb scheduling noise.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := g.readyzOnce(rctx, rep)
		if err == nil && st.Ready {
			rep.setStatus(st)
			return st.ModelVersion, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return "", fmt.Errorf("replica not ready after reload: %w", err)
			}
			return "", fmt.Errorf("replica not ready after reload (draining=%v degraded=%v)",
				st.Draining, st.Degraded)
		}
		select {
		case <-rctx.Done():
			return "", rctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// readyzOnce fetches and decodes rep's /readyz body.
func (g *Gate) readyzOnce(ctx context.Context, rep *replica) (replicaStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		return replicaStatus{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return replicaStatus{}, err
	}
	defer resp.Body.Close()
	// /readyz answers 503 with the same body shape while unready, so
	// decode regardless of status and trust the body's ready flag.
	var st replicaStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return replicaStatus{}, fmt.Errorf("decoding readyz: %w", err)
	}
	return st, nil
}
