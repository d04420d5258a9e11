package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"napel/internal/obs"
	"napel/internal/serve"
)

func spanAttr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestGateTracePropagationWithHedge drives one stamped predict through
// gate→2 replicas with the primary stalled so the hedge wins, then
// asserts the full cross-process shape: every span — the gate root, both
// attempts, and the winning replica's server span — carries the client's
// trace id; the gate root is parented under the client's span; the
// winner's server span is parented under the gate attempt that carried
// it; and the canceled attempt is annotated hedge_loser.
func TestGateTracePropagationWithHedge(t *testing.T) {
	f := fixture(t)
	tf := newTestFleet(t, 2, func(c *Config) {
		c.HedgeAfter = 15 * time.Millisecond
	})

	// Find a request owned by replica 0 and stall its owner, as in
	// TestGateHedging, so the hedged attempt always wins the race.
	var req serve.PredictRequest
	rt := tf.gate.routing.Load()
	found := false
	for _, cand := range requests(f, 200) {
		raw, _ := json.Marshal(cand)
		if rt.reps[rt.ring.Shard(routeKey(raw))] == rt.reps[0] {
			req, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no request routed to replica 0 in 200 candidates")
	}
	slow := tf.replicas[0]
	if slow.ts.URL != rt.reps[0].url {
		for _, r := range tf.replicas {
			if r.ts.URL == rt.reps[0].url {
				slow = r
			}
		}
	}
	slow.delay.Store(int64(400 * time.Millisecond))

	// The client leg: a deterministic traceparent, as napel-loadgen
	// stamps one.
	const clientTrace, clientSpan = uint64(0x10adc11e47), uint64(0x5eed)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, tf.ts.URL+"/v1/predict", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceParentHeader, obs.FormatTraceParent(clientTrace, clientSpan))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged predict: HTTP %d: %s", resp.StatusCode, body)
	}

	wantTrace := fmt.Sprintf("%016x", clientTrace)

	// The losing attempt's span ends when its cancellation propagates,
	// shortly after the response — poll for the full gate-side shape.
	var root obs.SpanRecord
	var attempts []obs.SpanRecord
	deadline := time.Now().Add(3 * time.Second)
	for {
		root, attempts = obs.SpanRecord{}, nil
		for _, s := range tf.gate.Tracer().Snapshot() {
			if s.TraceID != wantTrace {
				continue
			}
			switch s.Name {
			case "gate.predict":
				root = s
			case "gate.attempt":
				attempts = append(attempts, s)
			}
		}
		if root.SpanID != "" && len(attempts) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never recorded root+2 attempts for trace %s: root=%+v attempts=%d",
				wantTrace, root, len(attempts))
		}
		time.Sleep(10 * time.Millisecond)
	}

	if want := fmt.Sprintf("%016x", clientSpan); root.ParentID != want {
		t.Fatalf("gate root parented under %q, want client span %q", root.ParentID, want)
	}
	var winner, loser obs.SpanRecord
	for _, a := range attempts {
		if a.ParentID != root.SpanID {
			t.Fatalf("attempt parented under %q, want gate root %q", a.ParentID, root.SpanID)
		}
		if spanAttr(a, "hedge_loser") == "true" {
			loser = a
		} else {
			winner = a
		}
	}
	if loser.SpanID == "" {
		t.Fatal("no attempt annotated hedge_loser")
	}
	if winner.SpanID == "" {
		t.Fatal("both attempts annotated hedge_loser")
	}
	if spanAttr(winner, "hedge") != "true" {
		t.Fatalf("winning attempt %+v is not the hedge — the stalled primary should have lost", winner)
	}

	// The winning replica's server span joined the same trace over the
	// wire and parents under exactly the attempt that carried it.
	var fast *testReplica
	for _, r := range tf.replicas {
		if r.ts.URL == spanAttr(winner, "replica") {
			fast = r
		}
	}
	if fast == nil {
		t.Fatalf("winning attempt names unknown replica %q", spanAttr(winner, "replica"))
	}
	var server obs.SpanRecord
	deadline = time.Now().Add(3 * time.Second)
	for server.SpanID == "" {
		for _, s := range fast.srv.Tracer().Snapshot() {
			if s.TraceID == wantTrace && s.Name == "http.predict" {
				server = s
			}
		}
		if server.SpanID == "" {
			if time.Now().After(deadline) {
				t.Fatalf("winning replica never recorded an http.predict span for trace %s", wantTrace)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if server.ParentID != winner.SpanID {
		t.Fatalf("server span parented under %q, want winning attempt %q", server.ParentID, winner.SpanID)
	}
}
