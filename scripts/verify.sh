#!/usr/bin/env bash
# Full verification gate for the repo: static checks, build, the test
# suite under the race detector, and live end-to-end smoke tests of the
# napel-serve HTTP service (train a tiny model, start the server, hit
# /healthz and /v1/predict, then check graceful drain on SIGTERM), of
# the napel-traind lifecycle (submit a job, wait for promotion, serve
# the promoted model), of the resilience layer (a -lazy server flipping
# /readyz 503 -> 200, and a traind promoting under an injected fault
# plan), of napel-loadgen (two same-seed runs replaying identical
# request schedules with correctness probing, then a chaos-under-load
# run proving degraded-mode serving holds a relaxed SLO), and of the
# fleet tier (traind + two lazy store-pulling replicas behind
# napel-gate: a rolling hot-install via POST /v1/fleet/reload, then a
# probed loadgen run through the gate with zero mismatches), and of
# distributed collection (a serial job vs. the same job leased to two
# napel-worker processes with one killed mid-run: the promoted
# manifests must agree on data_hash and model_hash byte for byte).
# Two robustness stages close the file: a membership-chaos run (kill
# one of three gate replicas under a zero-error-budget load — it must
# be evicted from the ring, then readmitted on restart, with the epoch
# advancing each way) and a coordinator-crash run (SIGKILL a traind
# with -collect-journal mid-collection — the restart must replay
# journaled completions, the workers must reconnect, and the resumed
# manifest must match the serial reference byte for byte).
#
# Run via `make verify` or directly: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go test -race (concurrent packages) =="
# The race detector slows the full internal/exp table/figure drivers past
# the per-package test timeout, so the race pass targets the packages
# that actually share state across goroutines: the HTTP service, the LRU
# response cache, the predictor it serves concurrently, the trace fan-out
# layer, and the parallel collection engine. internal/exp joins with its
# dedicated micro-settings parallel-pipeline tests.
go test -race -count=1 ./internal/serve/... ./internal/fleet/... ./internal/member/... ./internal/cache/... ./internal/napel/... ./internal/trace/... ./internal/lifecycle/... ./internal/collectd/... ./internal/obs/... ./internal/obsd/... ./internal/resilience/...
go test -race -count=1 -run 'Parallel' ./internal/exp/...

echo "== fuzz the model file decoder (10 s) =="
# A model can arrive as untrusted bytes over -model-store. The seed
# corpus runs in every go test; this stage searches past it, checking
# LoadPredictor against the encoding/json reference decode.
go test -run '^$' -fuzz FuzzLoadPredictor -fuzztime 10s ./internal/napel

echo "== fuzz the scrape and traceparent parsers (10 s each) =="
# napel-obsd and napel-loadgen parse other processes' /metrics, and every
# service parses the traceparent header of any client.
go test -run '^$' -fuzz FuzzParseExposition -fuzztime 10s ./internal/obs
go test -run '^$' -fuzz FuzzParseTraceParent -fuzztime 10s ./internal/obs

echo "== fuzz the JSON reader and batch splitter (10 s) =="
# napel-gate splits every batch body any client sends with
# jsonread.Elements; FuzzReader checks it and the model decoder's reader
# against encoding/json.
go test -run '^$' -fuzz FuzzReader -fuzztime 10s ./internal/jsonread

echo "== fuzz the request decoder (10 s) =="
# napel-serve decodes every predict, batch and suitability body with its
# own one-pass decoder; FuzzDecodeRequest checks it against encoding/json
# plus the map-form assembly. Minimizing a ~13 KB seed can stall a short
# run, hence the minimize cap.
go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 2s ./internal/serve

echo "== napel-serve smoke test =="
tmp=$(mktemp -d)
server_pid=""
traind_pid=""
cleanup() {
    for pid in "$server_pid" "$traind_pid" \
        "${replica1_pid:-}" "${replica2_pid:-}" "${replica3_pid:-}" \
        "${gate_pid:-}" "${lg_pid:-}" \
        "${worker1_pid:-}" "${worker2_pid:-}" "${obsd_pid:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/napel" ./cmd/napel
go build -o "$tmp/napel-serve" ./cmd/napel-serve

# A deliberately tiny model: one kernel, scaled inputs, small budgets —
# this trains in about a second and is only used to exercise the wire.
"$tmp/napel" train -kernels atax -train-scale 32 \
    -train-sim-budget 20000 -train-profile-budget 20000 \
    -out "$tmp/model.json" >/dev/null
"$tmp/napel" export-profile -kernel atax -scale 32 -max-iters 1 \
    -budget 20000 -out "$tmp/req.json"

port=$(( (RANDOM % 20000) + 20000 ))
url="http://127.0.0.1:$port"
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$port" -quiet 2>"$tmp/server.log" &
server_pid=$!

up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$url/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: server never became healthy" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi

health=$(curl -sS -o /dev/null -w '%{http_code}' "$url/healthz")
predict=$(curl -sS -o "$tmp/resp.json" -w '%{http_code}' -d @"$tmp/req.json" "$url/v1/predict")
if [ "$health" != 200 ] || [ "$predict" != 200 ]; then
    echo "verify: healthz=$health predict=$predict (want 200/200)" >&2
    cat "$tmp/resp.json" >&2
    exit 1
fi
if ! grep -q '"edp"' "$tmp/resp.json"; then
    echo "verify: predict response has no edp field:" >&2
    cat "$tmp/resp.json" >&2
    exit 1
fi

# Observability surface: /metrics must speak exposition format 0.0.4 and
# carry the request just made; /debug/traces must show its spans.
mct=$(curl -sS -o "$tmp/metrics.txt" -w '%{content_type}' "$url/metrics")
if [ "$mct" != "text/plain; version=0.0.4; charset=utf-8" ]; then
    echo "verify: /metrics content type '$mct'" >&2
    exit 1
fi
for series in napel_build_info napel_serve_requests_total \
    napel_serve_predict_stage_seconds_bucket napel_serve_cache_misses_total; do
    if ! grep -q "$series" "$tmp/metrics.txt"; then
        echo "verify: /metrics missing $series" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    fi
done
if ! curl -sS "$url/debug/traces?name=predict" | grep -q '"http.predict"'; then
    echo "verify: /debug/traces has no http.predict trace" >&2
    curl -sS "$url/debug/traces" >&2
    exit 1
fi

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "verify: server did not exit cleanly on SIGTERM" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi
server_pid=""
echo "smoke test: healthz=$health predict=$predict, clean SIGTERM drain"

echo "== napel-traind lifecycle smoke test =="
go build -o "$tmp/napel-traind" ./cmd/napel-traind

tport=$(( (RANDOM % 20000) + 20000 ))
turl="http://127.0.0.1:$tport"
"$tmp/napel-traind" -store "$tmp/store" -addr "127.0.0.1:$tport" \
    2>"$tmp/traind.log" &
traind_pid=$!

up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$turl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: traind never became healthy" >&2
    cat "$tmp/traind.log" >&2
    exit 1
fi

# Submit a deliberately tiny job and wait for canary promotion.
submit=$(curl -sS -d '{"kernels":["atax"],"train_scale":32,"max_iters":1,
    "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":2}' \
    "$turl/v1/jobs")
job=$(printf '%s' "$submit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$job" ]; then
    echo "verify: job submission failed: $submit" >&2
    exit 1
fi
state=""
for _ in $(seq 1 300); do
    state=$(curl -sS "$turl/v1/jobs/$job" | sed -n 's/.*"state"[: ]*"\([a-z]*\)".*/\1/p')
    case "$state" in promoted|rejected|failed|canceled) break ;; esac
    sleep 0.1
done
if [ "$state" != promoted ]; then
    echo "verify: job $job ended in state '$state' (want promoted)" >&2
    curl -sS "$turl/v1/jobs/$job" >&2
    cat "$tmp/traind.log" >&2
    exit 1
fi
if ! curl -sS "$turl/v1/store" | grep -q '"model_hash"'; then
    echo "verify: store has no promoted manifest after promotion" >&2
    exit 1
fi

# The daemon's observability surface after one promoted job.
tct=$(curl -sS -o "$tmp/tmetrics.txt" -w '%{content_type}' "$turl/metrics")
if [ "$tct" != "text/plain; version=0.0.4; charset=utf-8" ]; then
    echo "verify: traind /metrics content type '$tct'" >&2
    exit 1
fi
for series in napel_build_info napel_traind_promotions_total \
    napel_traind_job_stage_seconds_bucket napel_engine_unit_seconds_count; do
    if ! grep -q "$series" "$tmp/tmetrics.txt"; then
        echo "verify: traind /metrics missing $series" >&2
        cat "$tmp/tmetrics.txt" >&2
        exit 1
    fi
done
if ! curl -sS "$turl/debug/traces?name=job" | grep -q '"engine.unit"'; then
    echo "verify: traind /debug/traces has no engine.unit spans under the job trace" >&2
    curl -sS "$turl/debug/traces" >&2
    exit 1
fi

# The promoted pointer must be directly servable by napel-serve.
lport=$(( (RANDOM % 20000) + 20000 ))
lurl="http://127.0.0.1:$lport"
"$tmp/napel-serve" -model "$tmp/store/current-model.json" \
    -addr "127.0.0.1:$lport" -quiet 2>"$tmp/serve2.log" &
server_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$lurl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: server on promoted model never became healthy" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
fi
lpredict=$(curl -sS -o "$tmp/resp2.json" -w '%{http_code}' -d @"$tmp/req.json" "$lurl/v1/predict")
if [ "$lpredict" != 200 ] || ! grep -q '"edp"' "$tmp/resp2.json"; then
    echo "verify: predict via promoted model: status=$lpredict" >&2
    cat "$tmp/resp2.json" >&2
    exit 1
fi
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
server_pid=""
kill -TERM "$traind_pid"
if ! wait "$traind_pid"; then
    echo "verify: traind did not exit cleanly on SIGTERM" >&2
    cat "$tmp/traind.log" >&2
    exit 1
fi
traind_pid=""
echo "lifecycle smoke test: job $job promoted, served prediction status $lpredict"

echo "== chaos smoke test: lazy readiness =="
# A -lazy server starts with no model: /healthz (liveness) must be 200
# while /readyz (readiness) is 503, and /readyz must flip to 200 once
# -follow installs a model at the watched path. The chaos flags ride
# along to prove the plan parser and injection plumbing work end to end.
rport=$(( (RANDOM % 20000) + 20000 ))
rurl="http://127.0.0.1:$rport"
chaos_model="$tmp/chaos-model.json" # does not exist yet
"$tmp/napel-serve" -model "$chaos_model" -lazy -follow 200ms \
    -chaos-seed 7 -chaos-spec 'serve.reload:0.05' \
    -addr "127.0.0.1:$rport" -quiet 2>"$tmp/chaos-serve.log" &
server_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$rurl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: lazy server never became live" >&2
    cat "$tmp/chaos-serve.log" >&2
    exit 1
fi
ready=$(curl -sS -o /dev/null -w '%{http_code}' "$rurl/readyz")
if [ "$ready" != 503 ]; then
    echo "verify: /readyz=$ready before any model (want 503)" >&2
    exit 1
fi
cp "$tmp/model.json" "$chaos_model"
ready=""
for _ in $(seq 1 150); do
    if curl -fsS -o /dev/null "$rurl/readyz" 2>/dev/null; then
        ready=200
        break
    fi
    sleep 0.2
done
if [ "$ready" != 200 ]; then
    echo "verify: /readyz never flipped to 200 after the model appeared" >&2
    cat "$tmp/chaos-serve.log" >&2
    exit 1
fi
cpredict=$(curl -sS -o "$tmp/resp3.json" -w '%{http_code}' -d @"$tmp/req.json" "$rurl/v1/predict")
if [ "$cpredict" != 200 ]; then
    echo "verify: predict after lazy load: status=$cpredict" >&2
    cat "$tmp/resp3.json" >&2
    exit 1
fi
curl -sS -o "$tmp/chaos-metrics.txt" "$rurl/metrics"
for series in napel_serve_ready napel_resilience_breaker_state napel_chaos_injected_total; do
    if ! grep -q "$series" "$tmp/chaos-metrics.txt"; then
        echo "verify: lazy server /metrics missing $series" >&2
        cat "$tmp/chaos-metrics.txt" >&2
        exit 1
    fi
done
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "chaos smoke test: readyz 503 -> $ready, predict $cpredict"

echo "== chaos smoke test: traind promotes under injected faults =="
# A traind with ~16% of atomic file operations failing (torn writes and
# sync errors, deterministic under the fixed seed) must still drive a
# job to promotion through its retry loop.
cport=$(( (RANDOM % 20000) + 20000 ))
curl_traind="http://127.0.0.1:$cport"
"$tmp/napel-traind" -store "$tmp/chaos-store" -addr "127.0.0.1:$cport" \
    -chaos-seed 7 -chaos-spec 'atomicfile.write:0.08:partial,atomicfile.sync:0.08' \
    2>"$tmp/chaos-traind.log" &
traind_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$curl_traind/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: chaos traind never became healthy" >&2
    cat "$tmp/chaos-traind.log" >&2
    exit 1
fi
# Submission itself can hit an injected fault; retry a few times.
cjob=""
for _ in $(seq 1 10); do
    csubmit=$(curl -sS -d '{"kernels":["atax"],"train_scale":32,"max_iters":1,
        "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":2,
        "max_retries":10}' "$curl_traind/v1/jobs")
    cjob=$(printf '%s' "$csubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
    [ -n "$cjob" ] && break
    sleep 0.2
done
if [ -z "$cjob" ]; then
    echo "verify: chaos job submission failed: $csubmit" >&2
    exit 1
fi
cstate=""
for _ in $(seq 1 600); do
    cstate=$(curl -sS "$curl_traind/v1/jobs/$cjob" | sed -n 's/.*"state"[: ]*"\([a-z]*\)".*/\1/p')
    case "$cstate" in promoted|rejected|failed|canceled) break ;; esac
    sleep 0.1
done
if [ "$cstate" != promoted ]; then
    echo "verify: chaos job $cjob ended in state '$cstate' (want promoted)" >&2
    curl -sS "$curl_traind/v1/jobs/$cjob" >&2
    cat "$tmp/chaos-traind.log" >&2
    exit 1
fi
injected=$(curl -sS "$curl_traind/metrics" | sed -n 's/^napel_chaos_injected_total \([0-9.e+]*\)$/\1/p')
if [ -z "$injected" ] || [ "$injected" = 0 ]; then
    echo "verify: chaos traind reports no injected faults (napel_chaos_injected_total='$injected')" >&2
    exit 1
fi
kill -TERM "$traind_pid"; wait "$traind_pid" 2>/dev/null || true
traind_pid=""
echo "chaos smoke test: job $cjob promoted with $injected injected faults"

echo "== collectd smoke test: distributed collection is byte-identical =="
# One traind runs the same tiny two-kernel job twice: first in-process
# (the serial reference), then with "distributed": true so every
# (kernel, input) unit is leased over HTTP to two napel-worker
# processes — one of which is killed mid-run, so its leases expire and
# requeue onto the survivor. The promoted manifests must agree on
# data_hash AND model_hash: the distributed dataset assembled from
# remote payloads is byte-identical to the serial one.
go build -o "$tmp/napel-worker" ./cmd/napel-worker
wport=$(( (RANDOM % 20000) + 20000 ))
wurl="http://127.0.0.1:$wport"
"$tmp/napel-traind" -store "$tmp/collectd-store" -addr "127.0.0.1:$wport" \
    -lease-ttl 1s 2>"$tmp/collectd-traind.log" &
traind_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$wurl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: collectd traind never became healthy" >&2
    cat "$tmp/collectd-traind.log" >&2
    exit 1
fi
dspec='"kernels":["atax","mvt"],"train_scale":32,"max_iters":1,
    "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":4'
wait_job() { # wait_job <url> <job-id> -> prints final state
    local s=""
    for _ in $(seq 1 600); do
        s=$(curl -sS "$1/v1/jobs/$2" | sed -n 's/.*"state"[: ]*"\([a-z]*\)".*/\1/p')
        case "$s" in promoted|rejected|failed|canceled) break ;; esac
        sleep 0.1
    done
    printf '%s' "$s"
}
manifest_field() { # manifest_field <url> <job-json-file> <field>
    local mid
    mid=$(sed -n 's/.*"manifest_id"[: ]*"\([^"]*\)".*/\1/p' "$2" | head -1)
    curl -sS "$1/v1/store/manifests/$mid" | sed -n "s/.*\"$3\"[: ]*\"\([^\"]*\)\".*/\1/p" | head -1
}
ssubmit=$(curl -sS -d "{$dspec}" "$wurl/v1/jobs")
sjob=$(printf '%s' "$ssubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$sjob" ]; then
    echo "verify: collectd serial job submission failed: $ssubmit" >&2
    exit 1
fi
sstate=$(wait_job "$wurl" "$sjob")
if [ "$sstate" != promoted ]; then
    echo "verify: collectd serial job $sjob ended '$sstate' (want promoted)" >&2
    cat "$tmp/collectd-traind.log" >&2
    exit 1
fi
curl -sS "$wurl/v1/jobs/$sjob" >"$tmp/collectd-serial-job.json"

# Two workers lease from the daemon's own admin listener.
"$tmp/napel-worker" -coordinator "$wurl" -id smoke-w1 -poll 20ms \
    2>"$tmp/collectd-w1.log" &
worker1_pid=$!
"$tmp/napel-worker" -coordinator "$wurl" -id smoke-w2 -poll 20ms \
    2>"$tmp/collectd-w2.log" &
worker2_pid=$!
dsubmit=$(curl -sS -d "{$dspec,\"distributed\":true}" "$wurl/v1/jobs")
djob=$(printf '%s' "$dsubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$djob" ]; then
    echo "verify: collectd distributed job submission failed: $dsubmit" >&2
    exit 1
fi
# Kill one worker mid-run; its in-flight lease expires and requeues.
sleep 0.4
kill -9 "$worker2_pid" 2>/dev/null; wait "$worker2_pid" 2>/dev/null || true
worker2_pid=""
dstate=$(wait_job "$wurl" "$djob")
if [ "$dstate" != promoted ]; then
    echo "verify: collectd distributed job $djob ended '$dstate' (want promoted)" >&2
    curl -sS "$wurl/v1/jobs/$djob" >&2
    cat "$tmp/collectd-traind.log" "$tmp/collectd-w1.log" >&2
    exit 1
fi
curl -sS "$wurl/v1/jobs/$djob" >"$tmp/collectd-dist-job.json"
for field in data_hash model_hash; do
    sh=$(manifest_field "$wurl" "$tmp/collectd-serial-job.json" "$field")
    dh=$(manifest_field "$wurl" "$tmp/collectd-dist-job.json" "$field")
    if [ -z "$sh" ] || [ "$sh" != "$dh" ]; then
        echo "verify: collectd $field diverged: serial '$sh' vs distributed '$dh'" >&2
        exit 1
    fi
done
# The units really travelled through the coordinator, not in-process.
completes=$(curl -sS "$wurl/metrics" \
    | sed -n 's/^napel_collectd_completes_total{result="ok"} \([0-9.e+]*\)$/\1/p')
if [ -z "$completes" ] || [ "$completes" = 0 ]; then
    echo "verify: coordinator reports no completed leases (napel_collectd_completes_total='$completes')" >&2
    curl -sS "$wurl/metrics" | grep napel_collectd >&2 || true
    exit 1
fi
kill "$worker1_pid" 2>/dev/null; wait "$worker1_pid" 2>/dev/null || true
worker1_pid=""
kill -TERM "$traind_pid"; wait "$traind_pid" 2>/dev/null || true
traind_pid=""
echo "collectd smoke test: serial and distributed manifests agree ($completes leases completed, 1 worker killed mid-run)"

echo "== loadgen smoke test: deterministic replay =="
# Two napel-loadgen runs with the same seed against the same server must
# attest identical request schedules (schedule/body digests) and pass
# their SLO gates, with the correctness prober verifying sampled
# responses against the local model file.
go build -o "$tmp/napel-loadgen" ./cmd/napel-loadgen
gport=$(( (RANDOM % 20000) + 20000 ))
gurl="http://127.0.0.1:$gport"
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$gport" -quiet \
    2>"$tmp/lg-serve.log" &
server_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$gurl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: loadgen target server never became healthy" >&2
    cat "$tmp/lg-serve.log" >&2
    exit 1
fi
for run in 1 2; do
    if ! "$tmp/napel-loadgen" -target "$gurl" -requests 300 -workers 4 \
        -seed 11 -keyspace 8 -base "$tmp/req.json" \
        -probe-model "$tmp/model.json" -probe-every 2 \
        -max-error-rate 0 -out "$tmp/lg$run.json" 2>"$tmp/lg$run.log"; then
        echo "verify: loadgen run $run failed" >&2
        cat "$tmp/lg$run.log" >&2
        exit 1
    fi
done
digest() { sed -n "s/.*\"$2\"[: ]*\"\([0-9a-f]*\)\".*/\1/p" "$1" | head -1; }
for field in schedule_digest body_digest; do
    d1=$(digest "$tmp/lg1.json" "$field")
    d2=$(digest "$tmp/lg2.json" "$field")
    if [ -z "$d1" ] || [ "$d1" != "$d2" ]; then
        echo "verify: $field diverged between same-seed runs ('$d1' vs '$d2')" >&2
        exit 1
    fi
done
probed=$(sed -n 's/.*"checked"[: ]*\([0-9]*\).*/\1/p' "$tmp/lg1.json" | head -1)
if [ -z "$probed" ] || [ "$probed" -eq 0 ]; then
    echo "verify: loadgen prober checked no responses" >&2
    cat "$tmp/lg1.json" >&2
    exit 1
fi
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "loadgen smoke test: schedule digest $d1 replayed, $probed responses probed"

echo "== chaos smoke test: degraded serving under load holds its SLO =="
# A serve instance with 20% of predictions failing (deterministic plan)
# and a single-entry response cache (so faults actually hit the predict
# path instead of the LRU) must keep serving under load: last-good
# answers downgrade faults to degraded 200s, so the run must see
# degraded answers (-expect-degraded) while hard errors — only the
# variants whose first-ever request faults — stay within a relaxed
# error budget.
dport=$(( (RANDOM % 20000) + 20000 ))
durl="http://127.0.0.1:$dport"
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$dport" -quiet \
    -cache-entries 1 -chaos-seed 7 -chaos-spec 'serve.predict:0.2' \
    2>"$tmp/chaos-load-serve.log" &
server_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$durl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: chaos-load server never became healthy" >&2
    cat "$tmp/chaos-load-serve.log" >&2
    exit 1
fi
if ! "$tmp/napel-loadgen" -target "$durl" -requests 400 -workers 4 \
    -seed 23 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/model.json" \
    -expect-degraded -max-error-rate 0.2 -out "$tmp/chaos-load.json" \
    2>"$tmp/chaos-load.log"; then
    echo "verify: chaos-under-load run failed its gates" >&2
    cat "$tmp/chaos-load.log" >&2
    cat "$tmp/chaos-load.json" >&2
    exit 1
fi
degraded=$(sed -n 's/.*"degraded"[: ]*\([0-9]*\).*/\1/p' "$tmp/chaos-load.json" | head -1)
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "chaos smoke test: $degraded degraded answers served under injected faults, SLO held"

echo "== fleet smoke test: store-driven replicas behind napel-gate =="
# The full distribution path: two -lazy replicas come up against an
# empty store (unready), traind then trains and promotes a model, and
# the gate rolls a fleet-wide hot-install one replica at a time — each
# pulling the blob from the store's HTTP API, sha256-verified on
# receipt. Loadgen then drives the gate with
# the promoted model file as its correctness oracle: every probed
# response must be bit-identical to a local evaluation, proving gate
# routing neither corrupts nor mixes up requests.
go build -o "$tmp/napel-gate" ./cmd/napel-gate
fport=$(( (RANDOM % 20000) + 20000 ))
furl="http://127.0.0.1:$fport"
"$tmp/napel-traind" -store "$tmp/fleet-store" -addr "127.0.0.1:$fport" \
    2>"$tmp/fleet-traind.log" &
traind_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$furl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: fleet traind never became healthy" >&2
    cat "$tmp/fleet-traind.log" >&2
    exit 1
fi
# Two lazy replicas pulling from the store over HTTP. The store is
# still empty, so their eager first pull finds no promoted lineage:
# live immediately, unready until the rolling reload installs the
# model that traind promotes below.
r1port=$(( (RANDOM % 20000) + 20000 ))
r2port=$(( r1port + 1 ))
r1url="http://127.0.0.1:$r1port"
r2url="http://127.0.0.1:$r2port"
"$tmp/napel-serve" -model-store "$furl" -lazy -addr "127.0.0.1:$r1port" -quiet \
    2>"$tmp/fleet-r1.log" &
replica1_pid=$!
"$tmp/napel-serve" -model-store "$furl" -lazy -addr "127.0.0.1:$r2port" -quiet \
    2>"$tmp/fleet-r2.log" &
replica2_pid=$!
gateport=$(( (RANDOM % 20000) + 20000 ))
gateurl="http://127.0.0.1:$gateport"
"$tmp/napel-gate" -addr "127.0.0.1:$gateport" \
    -replicas "$r1url,$r2url" -health-interval 100ms \
    2>"$tmp/fleet-gate.log" &
gate_pid=$!
fleet_cleanup() {
    for pid in "$replica1_pid" "$replica2_pid" "$gate_pid"; do
        kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null || true
    done
    replica1_pid=""; replica2_pid=""; gate_pid=""
}
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$gateurl/healthz" 2>/dev/null \
        && curl -fsS -o /dev/null "$r1url/healthz" 2>/dev/null \
        && curl -fsS -o /dev/null "$r2url/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: fleet tier never became live" >&2
    cat "$tmp/fleet-gate.log" "$tmp/fleet-r1.log" >&2
    exit 1
fi
ready=$(curl -sS -o /dev/null -w '%{http_code}' "$r1url/readyz")
if [ "$ready" != 503 ]; then
    echo "verify: lazy store replica /readyz=$ready before install (want 503)" >&2
    exit 1
fi

# Now publish something to distribute: train + promote through traind.
fsubmit=$(curl -sS -d '{"kernels":["atax"],"train_scale":32,"max_iters":1,
    "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":2}' \
    "$furl/v1/jobs")
fjob=$(printf '%s' "$fsubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$fjob" ]; then
    echo "verify: fleet job submission failed: $fsubmit" >&2
    exit 1
fi
fstate=""
for _ in $(seq 1 300); do
    fstate=$(curl -sS "$furl/v1/jobs/$fjob" | sed -n 's/.*"state"[: ]*"\([a-z]*\)".*/\1/p')
    case "$fstate" in promoted|rejected|failed|canceled) break ;; esac
    sleep 0.1
done
if [ "$fstate" != promoted ]; then
    echo "verify: fleet job $fjob ended in state '$fstate' (want promoted)" >&2
    cat "$tmp/fleet-traind.log" >&2
    exit 1
fi

# Fleet-wide rolling hot-install through the gate.
roll=$(curl -sS -o "$tmp/fleet-roll.json" -w '%{http_code}' -X POST "$gateurl/v1/fleet/reload")
if [ "$roll" != 200 ]; then
    echo "verify: rolling reload: HTTP $roll" >&2
    cat "$tmp/fleet-roll.json" >&2
    cat "$tmp/fleet-gate.log" >&2
    exit 1
fi
for rurl in "$r1url" "$r2url"; do
    ready=$(curl -sS -o /dev/null -w '%{http_code}' "$rurl/readyz")
    if [ "$ready" != 200 ]; then
        echo "verify: replica $rurl /readyz=$ready after rolling reload (want 200)" >&2
        exit 1
    fi
done

# Drive the gate; the promoted model file is the correctness oracle.
if ! "$tmp/napel-loadgen" -target "$gateurl" -requests 300 -workers 4 \
    -seed 31 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/fleet-store/current-model.json" -probe-every 2 \
    -max-error-rate 0 -topology "gate+2x serve" \
    -scrape-targets "$r1url,$r2url" -out "$tmp/fleet-lg.json" \
    2>"$tmp/fleet-lg.log"; then
    echo "verify: fleet loadgen run failed its gates" >&2
    cat "$tmp/fleet-lg.log" >&2
    cat "$tmp/fleet-gate.log" >&2
    exit 1
fi
fprobed=$(sed -n 's/.*"checked"[: ]*\([0-9]*\).*/\1/p' "$tmp/fleet-lg.json" | head -1)
fmism=$(sed -n 's/.*"mismatches"[: ]*\([0-9]*\).*/\1/p' "$tmp/fleet-lg.json" | head -1)
if [ -z "$fprobed" ] || [ "$fprobed" -eq 0 ] || [ "$fmism" != 0 ]; then
    echo "verify: fleet probe checked=$fprobed mismatches=$fmism (want >0 and 0)" >&2
    cat "$tmp/fleet-lg.json" >&2
    exit 1
fi
fleet_cleanup
kill -TERM "$traind_pid"; wait "$traind_pid" 2>/dev/null || true
traind_pid=""
echo "fleet smoke test: rolled 2 replicas, $fprobed gate responses probed, 0 mismatches"

echo "== fleet-trace smoke test: one trace across loadgen, gate and serve via napel-obsd =="
# The observability plane end to end: two replicas and a gate push their
# spans to napel-obsd, obsd scrapes all three /metrics, and a
# traceparent-stamping loadgen run drives the gate. /debug/fleet must
# then show at least one trace assembled from >= 3 distinct processes
# (napel-loadgen's client span, napel-gate's request+attempt spans, and
# the serving replica's server span, joined only by the propagated
# header), and obsd's /metrics must re-export the replicas' series
# merged under job/instance labels.
go build -o "$tmp/napel-obsd" ./cmd/napel-obsd
t1port=$(( (RANDOM % 20000) + 20000 ))
t2port=$(( t1port + 1 ))
t1url="http://127.0.0.1:$t1port"
t2url="http://127.0.0.1:$t2port"
tgateport=$(( (RANDOM % 20000) + 20000 ))
tgateurl="http://127.0.0.1:$tgateport"
obsport=$(( (RANDOM % 20000) + 20000 ))
obsurl="http://127.0.0.1:$obsport"
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$t1port" -quiet \
    -trace-push "$obsurl" 2>"$tmp/trace-r1.log" &
replica1_pid=$!
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$t2port" -quiet \
    -trace-push "$obsurl" 2>"$tmp/trace-r2.log" &
replica2_pid=$!
"$tmp/napel-gate" -addr "127.0.0.1:$tgateport" -replicas "$t1url,$t2url" \
    -health-interval 100ms -trace-push "$obsurl" 2>"$tmp/trace-gate.log" &
gate_pid=$!
"$tmp/napel-obsd" -addr "127.0.0.1:$obsport" -scrape-interval 200ms \
    -targets "gate=$tgateurl,serve=$t1url,serve=$t2url" \
    2>"$tmp/trace-obsd.log" &
obsd_pid=$!
up=""
for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$tgateurl/readyz" 2>/dev/null \
        && curl -fsS -o /dev/null "$obsurl/healthz" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: trace fleet never became ready" >&2
    cat "$tmp/trace-gate.log" "$tmp/trace-obsd.log" >&2
    exit 1
fi
if ! "$tmp/napel-loadgen" -target "$tgateurl" -requests 200 -workers 4 \
    -seed 7 -keyspace 8 -base "$tmp/req.json" -trace-push "$obsurl" \
    -max-error-rate 0 -out "$tmp/trace-lg.json" 2>"$tmp/trace-lg.log"; then
    echo "verify: trace loadgen run failed" >&2
    cat "$tmp/trace-lg.log" >&2
    exit 1
fi
# Pushers flush every second (and on loadgen exit); obsd scrapes every
# 200ms. Poll until a cross-process trace and the merged series appear.
fleet_trace=""
for _ in $(seq 1 50); do
    curl -sS "$obsurl/debug/fleet?limit=50" >"$tmp/trace-fleet.json" 2>/dev/null || true
    if grep -q '"process_count":3' "$tmp/trace-fleet.json"; then
        fleet_trace=yes
        break
    fi
    sleep 0.2
done
if [ -z "$fleet_trace" ]; then
    echo "verify: /debug/fleet never assembled a trace spanning 3 processes" >&2
    cat "$tmp/trace-fleet.json" >&2
    cat "$tmp/trace-obsd.log" >&2
    exit 1
fi
for probe in napel-loadgen napel-gate napel-serve; do
    if ! grep -q "\"$probe\"" "$tmp/trace-fleet.json"; then
        echo "verify: /debug/fleet names no $probe spans" >&2
        cat "$tmp/trace-fleet.json" >&2
        exit 1
    fi
done
curl -sS "$obsurl/metrics" >"$tmp/trace-metrics.txt"
for series in 'napel_fleet_up{job="gate",instance="127.0.0.1:'"$tgateport"'"} 1' \
    'napel_fleet_up{job="serve",instance="127.0.0.1:'"$t1port"'"} 1' \
    'napel_serve_requests_total{job="serve"' \
    'napel_fleet_gate_requests_total{job="gate"' \
    napel_obsd_spans_total; do
    if ! grep -qF "$series" "$tmp/trace-metrics.txt"; then
        echo "verify: obsd /metrics missing '$series'" >&2
        grep 'napel_fleet\|napel_obsd' "$tmp/trace-metrics.txt" >&2 || cat "$tmp/trace-metrics.txt" >&2
        exit 1
    fi
done
fleet_cleanup
kill "$obsd_pid" 2>/dev/null; wait "$obsd_pid" 2>/dev/null || true
obsd_pid=""
echo "fleet-trace smoke test: cross-process trace assembled, merged fleet series exported"

echo "== membership chaos smoke test: kill a replica under load, evict, readmit =="
# Three ready replicas front a gate — two from the static -replicas
# seed, one joining at runtime via napel-serve -join. A
# zero-hard-error loadgen run then drives the gate while one replica
# is SIGKILLed: the prober must evict it within -evict-after probe
# intervals (the ring epoch advances, replicas_ready drops to 2) while
# ring failover keeps the error budget at zero. Restarting the dead
# replica must readmit it at a yet-higher epoch with no gate restart.
m1port=$(( (RANDOM % 20000) + 20000 ))
m2port=$(( m1port + 1 ))
m3port=$(( m1port + 2 ))
m1url="http://127.0.0.1:$m1port"
m2url="http://127.0.0.1:$m2port"
m3url="http://127.0.0.1:$m3port"
mgateport=$(( (RANDOM % 20000) + 20000 ))
mgateurl="http://127.0.0.1:$mgateport"
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$m1port" -quiet \
    2>"$tmp/member-r1.log" &
replica1_pid=$!
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$m2port" -quiet \
    2>"$tmp/member-r2.log" &
replica2_pid=$!
"$tmp/napel-gate" -addr "127.0.0.1:$mgateport" -replicas "$m1url,$m2url" \
    -health-interval 50ms -evict-after 2 2>"$tmp/member-gate.log" &
gate_pid=$!
# The third replica has no seed entry: it registers itself.
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$m3port" -quiet \
    -join "$mgateurl" -join-interval 200ms 2>"$tmp/member-r3.log" &
replica3_pid=$!
gate_epoch() { curl -sS "$mgateurl/readyz" | sed -n 's/.*"epoch"[: ]*\([0-9]*\).*/\1/p'; }
gate_ready_n() { curl -sS "$mgateurl/readyz" | sed -n 's/.*"replicas_ready"[: ]*\([0-9]*\).*/\1/p'; }
up=""
for _ in $(seq 1 100); do
    if [ "$(gate_ready_n 2>/dev/null)" = 3 ]; then
        up=yes
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "verify: gate never saw 3 ready replicas (static seed + join)" >&2
    cat "$tmp/member-gate.log" "$tmp/member-r3.log" >&2
    exit 1
fi
if ! grep -q "announced" "$tmp/member-r3.log"; then
    echo "verify: joining replica never logged its announce" >&2
    cat "$tmp/member-r3.log" >&2
    exit 1
fi
epoch0=$(gate_epoch)
"$tmp/napel-loadgen" -target "$mgateurl" -duration 3s -workers 4 \
    -seed 43 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/model.json" -probe-every 2 \
    -max-error-rate 0 -out "$tmp/member-lg.json" 2>"$tmp/member-lg.log" &
lg_pid=$!
sleep 0.5
kill -9 "$replica2_pid" 2>/dev/null; wait "$replica2_pid" 2>/dev/null || true
replica2_pid=""
# Eviction within -evict-after probe intervals (2 x 50ms; poll allows
# scheduler noise but stays an order of magnitude under the load run).
evicted=""
for _ in $(seq 1 50); do
    if [ "$(gate_ready_n)" = 2 ]; then
        evicted=yes
        break
    fi
    sleep 0.05
done
if [ -z "$evicted" ]; then
    echo "verify: killed replica was never evicted from the ring" >&2
    curl -sS "$mgateurl/v1/fleet" >&2
    cat "$tmp/member-gate.log" >&2
    exit 1
fi
epoch1=$(gate_epoch)
if [ -z "$epoch1" ] || [ "$epoch1" -le "$epoch0" ]; then
    echo "verify: eviction did not advance the ring epoch ($epoch0 -> $epoch1)" >&2
    exit 1
fi
if ! wait "$lg_pid"; then
    lg_pid=""
    echo "verify: loadgen through the membership churn failed its zero-error gate" >&2
    cat "$tmp/member-lg.log" >&2
    cat "$tmp/member-lg.json" >&2 || true
    exit 1
fi
lg_pid=""
# The replica restarts on its old address; the prober readmits it.
"$tmp/napel-serve" -model "$tmp/model.json" -addr "127.0.0.1:$m2port" -quiet \
    2>"$tmp/member-r2b.log" &
replica2_pid=$!
readmitted=""
for _ in $(seq 1 100); do
    if [ "$(gate_ready_n)" = 3 ]; then
        readmitted=yes
        break
    fi
    sleep 0.1
done
if [ -z "$readmitted" ]; then
    echo "verify: restarted replica was never readmitted to the ring" >&2
    curl -sS "$mgateurl/v1/fleet" >&2
    cat "$tmp/member-gate.log" "$tmp/member-r2b.log" >&2
    exit 1
fi
epoch2=$(gate_epoch)
if [ -z "$epoch2" ] || [ "$epoch2" -le "$epoch1" ]; then
    echo "verify: readmission did not advance the ring epoch ($epoch1 -> $epoch2)" >&2
    exit 1
fi
# The ring-change accounting must agree with what just happened.
curl -sS "$mgateurl/metrics" >"$tmp/member-metrics.txt"
for change in evict readmit; do
    n=$(sed -n "s/^napel_fleet_ring_changes_total{change=\"$change\"} \([0-9.e+]*\)\$/\1/p" \
        "$tmp/member-metrics.txt")
    if [ -z "$n" ] || [ "$n" = 0 ]; then
        echo "verify: gate counted no $change ring changes" >&2
        grep napel_fleet_ring "$tmp/member-metrics.txt" >&2 || true
        exit 1
    fi
done
fleet_cleanup
kill "$replica3_pid" 2>/dev/null; wait "$replica3_pid" 2>/dev/null || true
replica3_pid=""
echo "membership chaos smoke test: evict + readmit under load, epoch $epoch0 -> $epoch1 -> $epoch2, zero hard errors"

echo "== collectd journal smoke test: SIGKILLed coordinator resumes byte-identically =="
# Crash durability of distributed collection: a traind with
# -collect-journal is SIGKILLed once at least one lease has completed,
# then restarted over the same store, jobs dir and journal.
# -checkpoint-every 1h keeps the lifecycle checkpoint out of the
# picture, so the journal is the only thing standing between the crash
# and a full re-collection: the restart must replay journaled
# completions instead of re-executing them, the tagged workers must
# ride out the outage on their backoff loop and reconnect, and the
# resumed job's promoted manifest must agree with a serial reference
# run byte for byte.
jport=$(( (RANDOM % 20000) + 20000 ))
jurl="http://127.0.0.1:$jport"
journal="$tmp/collect.journal"
start_journal_traind() {
    "$tmp/napel-traind" -store "$tmp/journal-store" -addr "127.0.0.1:$jport" \
        -lease-ttl 1s -collect-journal "$journal" -checkpoint-every 1h \
        2>>"$tmp/journal-traind.log" &
    traind_pid=$!
    up=""
    for _ in $(seq 1 50); do
        if curl -fsS -o /dev/null "$jurl/healthz" 2>/dev/null; then
            up=yes
            break
        fi
        sleep 0.1
    done
    if [ -z "$up" ]; then
        echo "verify: journal traind never became healthy" >&2
        cat "$tmp/journal-traind.log" >&2
        exit 1
    fi
}
start_journal_traind
jsubmit=$(curl -sS -d "{$dspec}" "$jurl/v1/jobs")
jsjob=$(printf '%s' "$jsubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$jsjob" ]; then
    echo "verify: journal serial job submission failed: $jsubmit" >&2
    exit 1
fi
jsstate=$(wait_job "$jurl" "$jsjob")
if [ "$jsstate" != promoted ]; then
    echo "verify: journal serial job $jsjob ended '$jsstate' (want promoted)" >&2
    cat "$tmp/journal-traind.log" >&2
    exit 1
fi
curl -sS "$jurl/v1/jobs/$jsjob" >"$tmp/journal-serial-job.json"
# Tagged workers; a small -reconnect-max keeps the post-kill outage
# short. The job requires tag hmc, which both advertise.
"$tmp/napel-worker" -coordinator "$jurl" -id journal-w1 -tags hmc,x86 \
    -poll 20ms -reconnect-max 1s 2>"$tmp/journal-w1.log" &
worker1_pid=$!
"$tmp/napel-worker" -coordinator "$jurl" -id journal-w2 -tags hmc \
    -poll 20ms -reconnect-max 1s 2>"$tmp/journal-w2.log" &
worker2_pid=$!
jdsubmit=$(curl -sS -d "{$dspec,\"distributed\":true,\"tags\":[\"hmc\"]}" "$jurl/v1/jobs")
jdjob=$(printf '%s' "$jdsubmit" | sed -n 's/.*"id"[: ]*"\(j-[0-9]*\)".*/\1/p')
if [ -z "$jdjob" ]; then
    echo "verify: journal distributed job submission failed: $jdsubmit" >&2
    exit 1
fi
# SIGKILL the coordinator once the journal holds something to replay.
killable=""
for _ in $(seq 1 200); do
    c=$(curl -sS "$jurl/metrics" 2>/dev/null \
        | sed -n 's/^napel_collectd_completes_total{result="ok"} \([0-9.e+]*\)$/\1/p')
    if [ -n "$c" ] && [ "$c" != 0 ]; then
        killable=yes
        break
    fi
    sleep 0.05
done
if [ -z "$killable" ]; then
    echo "verify: no lease ever completed before the kill window closed" >&2
    cat "$tmp/journal-traind.log" "$tmp/journal-w1.log" >&2
    exit 1
fi
kill -9 "$traind_pid" 2>/dev/null; wait "$traind_pid" 2>/dev/null || true
traind_pid=""
# Hold the coordinator down long enough that the workers' *lease
# polls* actually fail — only those drive the unreachable/reachable
# transition. A short outage is invisible to a busy worker: finishing
# its in-flight unit (~1.5s worst case here) and then the delivery's
# own retry chain (5 attempts, ~3.5s of jittered backoff) can bridge
# the gap entirely, after which the next poll just succeeds. Seven
# seconds outlasts both, so every worker lands in the backoff loop
# before the restart.
sleep 7
start_journal_traind
jdstate=$(wait_job "$jurl" "$jdjob")
if [ "$jdstate" != promoted ]; then
    echo "verify: resumed journal job $jdjob ended '$jdstate' (want promoted)" >&2
    curl -sS "$jurl/v1/jobs/$jdjob" >&2
    cat "$tmp/journal-traind.log" "$tmp/journal-w1.log" "$tmp/journal-w2.log" >&2
    exit 1
fi
# The restart answered units from the journal, not by re-executing.
replays=$(curl -sS "$jurl/metrics" \
    | sed -n 's/^napel_collectd_journal_replayed_total \([0-9.e+]*\)$/\1/p')
if [ -z "$replays" ] || [ "$replays" = 0 ]; then
    echo "verify: restarted coordinator replayed nothing from the journal" >&2
    grep 'journal' "$tmp/journal-traind.log" >&2 || true
    exit 1
fi
curl -sS "$jurl/v1/jobs/$jdjob" >"$tmp/journal-dist-job.json"
for field in data_hash model_hash; do
    sh=$(manifest_field "$jurl" "$tmp/journal-serial-job.json" "$field")
    dh=$(manifest_field "$jurl" "$tmp/journal-dist-job.json" "$field")
    if [ -z "$sh" ] || [ "$sh" != "$dh" ]; then
        echo "verify: journal-resumed $field diverged: serial '$sh' vs resumed '$dh'" >&2
        exit 1
    fi
done
# The workers rode out the coordinator outage on their backoff loop.
if ! grep -q "reachable again" "$tmp/journal-w1.log" "$tmp/journal-w2.log"; then
    echo "verify: no worker logged reconnecting after the coordinator restart" >&2
    cat "$tmp/journal-w1.log" "$tmp/journal-w2.log" >&2
    exit 1
fi
kill "$worker1_pid" 2>/dev/null; wait "$worker1_pid" 2>/dev/null || true
worker1_pid=""
kill "$worker2_pid" 2>/dev/null; wait "$worker2_pid" 2>/dev/null || true
worker2_pid=""
kill -TERM "$traind_pid"; wait "$traind_pid" 2>/dev/null || true
traind_pid=""
echo "journal smoke test: coordinator SIGKILLed and resumed, $replays unit(s) replayed, manifests byte-identical"

echo "verify: OK"
