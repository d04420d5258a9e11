package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a minimal replica for membership tests: a real
// listener with a toggleable /readyz and a canned /v1/predict, cheap
// enough to start, kill, and rebind on the same port.
type fakeReplica struct {
	ready    atomic.Bool
	predicts atomic.Int64

	addr string
	url  string
	srv  *http.Server
	ln   net.Listener
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = ln.Addr().String()
	f.url = "http://" + f.addr
	f.start(t, ln)
	t.Cleanup(func() { f.stop() })
	return f
}

func (f *fakeReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !f.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"ready":false,"model_version":"v1"}`)
			return
		}
		fmt.Fprintf(w, `{"ready":true,"model_version":"v1"}`)
	})
	// POST only, as napel-serve: a redirect replayed as a GET gets 405.
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		f.predicts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ipc":0.5,"replica":%q}`, f.url)
	})
	return mux
}

func (f *fakeReplica) start(t *testing.T, ln net.Listener) {
	t.Helper()
	f.ln = ln
	f.srv = &http.Server{Handler: f.handler()}
	go f.srv.Serve(ln)
}

func (f *fakeReplica) stop() {
	if f.srv != nil {
		f.srv.Close()
		f.srv = nil
	}
}

// restart rebinds the same address a stopped replica used — the
// "process came back" half of the churn story. The freed port can be
// raced by the OS, so bind with retries.
func (f *fakeReplica) restart(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", f.addr)
		if err == nil {
			f.start(t, ln)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", f.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// joinReplica POSTs one /v1/fleet/join and decodes the response.
func joinReplica(t *testing.T, gateURL, replicaURL string) map[string]any {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"url": replicaURL})
	resp, out := postRaw(t, gateURL+"/v1/fleet/join", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join %s: HTTP %d: %s", replicaURL, resp.StatusCode, out)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestGateDynamicMembership walks the full self-healing loop on a gate
// started with an empty seed list: three replicas join at runtime, one
// is killed and evicted at the probe-failure threshold, traffic keeps
// flowing with zero hard errors, and the restarted replica is
// readmitted at a higher epoch.
func TestGateDynamicMembership(t *testing.T) {
	g, err := New(Config{EvictThreshold: 2, HedgeAfter: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("empty gate readyz: HTTP %d, want 503", code)
	}

	reps := make([]*fakeReplica, 3)
	for i := range reps {
		reps[i] = newFakeReplica(t)
		res := joinReplica(t, ts.URL, reps[i].url)
		if res["membership"] != "alive" || res["new"] != true {
			t.Fatalf("join %d: %+v, want new alive member", i, res)
		}
	}
	if ep := g.Epoch(); ep != 3 {
		t.Fatalf("epoch after 3 joins = %d, want 3", ep)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz with 3 joined replicas: HTTP %d", code)
	}

	// Snapshot routing, then kill one replica. Until the threshold is
	// reached the ring is unchanged (suspect members still serve).
	before := g.routing.Load()
	if before.ring.Len() != 3 {
		t.Fatalf("ring has %d replicas, want 3", before.ring.Len())
	}
	victim := reps[0]
	victim.stop()
	g.CheckReplicas(context.Background())
	if g.routing.Load().epoch != before.epoch {
		t.Fatal("one failed probe must not change the ring (threshold is 2)")
	}
	g.CheckReplicas(context.Background())
	after := g.routing.Load()
	if after.ring.Len() != 2 || after.epoch <= before.epoch {
		t.Fatalf("eviction: ring=%d epoch %d->%d, want 2 replicas at a higher epoch",
			after.ring.Len(), before.epoch, after.epoch)
	}

	// The epoch-churn property: keys not owned by the evicted replica
	// keep their owner across the epoch.
	moved := 0
	for k := uint64(0); k < 4096; k++ {
		key := mix64(k)
		ownerBefore := before.reps[before.ring.Shard(key)].url
		ownerAfter := after.reps[after.ring.Shard(key)].url
		if ownerBefore == victim.url {
			if ownerAfter == victim.url {
				t.Fatalf("key %d still routed to the evicted replica", key)
			}
			continue
		}
		if ownerAfter != ownerBefore {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving replicas moved across the epoch", moved)
	}

	// Zero hard errors through the gate while a third of the fleet is
	// gone.
	for i := 0; i < 20; i++ {
		resp, body := postRaw(t, ts.URL+"/v1/predict",
			[]byte(fmt.Sprintf(`{"threads":%d}`, i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d during outage: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	if victim.predicts.Load() != 0 {
		t.Fatal("evicted replica received traffic")
	}

	// Recovery: the replica rebinds its port and the next probe pass
	// readmits it at yet another epoch.
	victim.restart(t)
	g.CheckReplicas(context.Background())
	final := g.routing.Load()
	if final.ring.Len() != 3 || final.epoch <= after.epoch {
		t.Fatalf("readmission: ring=%d epoch %d->%d, want 3 replicas at a higher epoch",
			final.ring.Len(), after.epoch, final.epoch)
	}

	var buf bytes.Buffer
	g.Obs().WriteText(&buf)
	for _, want := range []string{
		`napel_fleet_ring_changes_total{change="join"} 3`,
		`napel_fleet_ring_changes_total{change="evict"} 1`,
		`napel_fleet_ring_changes_total{change="readmit"} 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want,
				grepMetric(buf.String(), "napel_fleet_ring_changes_total"))
		}
	}
}

// TestGateJoinValidationAndIdempotence: malformed join bodies and URLs
// are refused, every spelling of a replica's URL names one member that
// the gate forwards to, a duplicate join is a no-op refresh, and an
// unready replica is registered but held out of the ring until it
// passes a probe.
func TestGateJoinValidationAndIdempotence(t *testing.T) {
	g, err := New(Config{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	for _, bad := range []string{`{}`, `{"url":""}`, `{"url":"not-a-url"}`, `{"url":"ftp://x"}`, `garbage`,
		`{"url":"http://127.0.0.1:9"} garbage`, `{"url":"http://127.0.0.1:9/v1"}`, `{"url":"http://127.0.0.1:9/?a=1"}`,
		`{"url":"http://127.0.0.1:9#f"}`, `{"url":"http://u:p@127.0.0.1:9"}`, `{"url":"http://:"}`, `{"url":"http://:80"}`,
		`{"url":"http://127.0.0.1:0"}`, `{"url":"http://127.0.0.1:00"}`, `{"url":"http://127.0.0.1:65536"}`,
		`{"url":"http://127.0.0.1:99999999999999999999"}`, `{"url":"http://h::80"}`} {
		resp, _ := postRaw(t, ts.URL+"/v1/fleet/join", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("join %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	// Kept with a trailing slash, this URL would probe ready through a
	// redirect while every forwarded POST is redirected into a 405.
	rep := newFakeReplica(t)
	first := joinReplica(t, ts.URL, rep.url+"//")
	if first["new"] != true || first["membership"] != "alive" || first["url"] != rep.url {
		t.Fatalf("first join: %+v, want new alive member %s", first, rep.url)
	}
	if resp, body := postRaw(t, ts.URL+"/v1/predict", []byte(`{}`)); resp.StatusCode != http.StatusOK || rep.predicts.Load() != 1 {
		t.Fatalf("predict through the joined replica: HTTP %d, %d predicts: %s", resp.StatusCode, rep.predicts.Load(), body)
	}
	epoch := g.Epoch()
	ru, err := url.Parse(rep.url)
	if err != nil {
		t.Fatal(err)
	}
	padded := ru.Scheme + "://" + ru.Hostname() + ":00" + ru.Port()
	for _, again := range []string{rep.url, rep.url + "/", rep.url + "//", strings.ToUpper(rep.url), padded} {
		res := joinReplica(t, ts.URL, again)
		if res["new"] != false {
			t.Fatalf("re-join as %s created a new member: %+v", again, res)
		}
		if g.Epoch() != epoch {
			t.Fatalf("re-join as %s of an alive replica moved the epoch %d -> %d", again, epoch, g.Epoch())
		}
	}

	// A URL without a port, with an empty one and with the scheme's
	// default one, in any number of digits, name one member too. Nothing
	// serves these loopback URLs, so each member is down, and re-joins
	// leave the epoch alone.
	for _, c := range []struct {
		member    string
		spellings []string
	}{
		{"http://127.0.0.1", []string{"http://127.0.0.1:80", "http://127.0.0.1", "http://127.0.0.1:", "HTTP://127.0.0.1:80/", "http://127.0.0.1:080"}},
		{"https://127.0.0.1", []string{"https://127.0.0.1:443", "https://127.0.0.1", "https://127.0.0.1:", "https://127.0.0.1:0443"}},
		{"http://[::1]", []string{"http://[::1]:80", "http://[::1]", "http://[::1]:"}},
	} {
		for i, spelling := range c.spellings {
			epoch := g.Epoch()
			res := joinReplica(t, ts.URL, spelling)
			if res["new"] != (i == 0) || res["url"] != c.member {
				t.Fatalf("join as %s: %+v, want member %s, new=%v", spelling, res, c.member, i == 0)
			}
			if i > 0 && g.Epoch() != epoch {
				t.Fatalf("re-join as %s moved the epoch %d -> %d", spelling, epoch, g.Epoch())
			}
		}
	}

	// An unready replica joins the roster but not the ring.
	lazy := newFakeReplica(t)
	lazy.ready.Store(false)
	res := joinReplica(t, ts.URL, lazy.url)
	if res["membership"] != "down" {
		t.Fatalf("unready join: %+v, want membership down", res)
	}
	if rt := g.routing.Load(); rt.ring.Len() != 1 {
		t.Fatalf("ring has %d replicas, want 1 (unready member excluded)", rt.ring.Len())
	}
	lazy.ready.Store(true)
	g.CheckReplicas(context.Background())
	if rt := g.routing.Load(); rt.ring.Len() != 2 {
		t.Fatalf("ring has %d replicas after recovery probe, want 2", rt.ring.Len())
	}
}

// TestGateUnreadyEvictsImmediately: a replica that answers its probe
// with ready:false (draining, model gone) leaves the ring on the next
// pass — no threshold, the replica itself said so.
func TestGateUnreadyEvictsImmediately(t *testing.T) {
	rep := newFakeReplica(t)
	g, err := New(Config{Replicas: []string{rep.url}, EvictThreshold: 5, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	if rt := g.routing.Load(); rt.ring.Len() != 1 {
		t.Fatal("seed replica not admitted")
	}
	epoch := g.Epoch()

	rep.ready.Store(false)
	g.CheckReplicas(context.Background())
	rt := g.routing.Load()
	if rt.ring.Len() != 0 || rt.epoch <= epoch {
		t.Fatalf("self-reported unready replica still in ring (len=%d epoch %d->%d)",
			rt.ring.Len(), epoch, rt.epoch)
	}
}

// FuzzJoinBody: no /v1/fleet/join body panics its decode, an accepted
// URL parses with an http(s) scheme, a host and nothing after it, its
// port, if any, lies in 1-65535 without leading zeros, and checking an
// accepted URL again returns it unchanged.
func FuzzJoinBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		u, err := joinURL(body)
		if err != nil {
			return
		}
		p, err := url.Parse(u)
		if err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" ||
			p.Opaque != "" || p.User != nil || p.Path != "" || p.RawQuery != "" || p.Fragment != "" {
			t.Fatalf("accepted %q, which parses as %#v (%v)", u, p, err)
		}
		if strings.HasSuffix(p.Host, ":") || p.Port() == defaultPorts[p.Scheme] {
			t.Fatalf("accepted %q, which keeps an empty or default port", u)
		}
		if port := p.Port(); port != "" {
			if n, err := strconv.Atoi(port); err != nil || n < 1 || n > 65535 || port[0] == '0' {
				t.Fatalf("accepted %q, whose port is not a number in 1-65535 without leading zeros", u)
			}
		}
		if again, err := replicaURL(u); err != nil || again != u {
			t.Fatalf("accepted %q, then checked again: %q (%v)", u, again, err)
		}
	})
}
