#!/usr/bin/env bash
# Full verification gate for the repo: static checks, build, the test
# suite (the benchmark module's too) with the race detector on the
# concurrent packages, fuzzing of the parsers of untrusted bytes, and
# live end-to-end smoke tests of the napel-serve HTTP service (train a
# tiny model, start the server, hit /healthz and /v1/predict, then check
# graceful drain on SIGTERM), of the napel-traind lifecycle (submit a
# job, wait for promotion, serve the promoted model), of the resilience
# layer (a -lazy server flipping /readyz 503 -> 200, and a traind
# promoting under an injected fault plan), of distributed collection (a
# serial job vs. the same job leased to two napel-worker processes with
# one killed mid-run: the promoted manifests must agree on data_hash and
# model_hash byte for byte), of napel-loadgen (two same-seed runs
# replaying identical request schedules with correctness probing, then a
# chaos-under-load run proving degraded-mode serving holds a relaxed
# SLO), of the fleet tier (traind + two lazy store-pulling replicas
# behind napel-gate: a rolling hot-install via POST /v1/fleet/reload,
# then a probed loadgen run through the gate with zero mismatches), and
# of one trace assembled across processes by napel-obsd. Two robustness
# stages close the file: a membership-chaos run (kill one of three gate
# replicas under a zero-error-budget load — it must be evicted from the
# ring, then readmitted on restart, with the epoch advancing each way)
# and a coordinator-crash run (SIGKILL a traind with -collect-journal
# mid-collection — the restart must replay journaled completions, the
# workers must reconnect, and the resumed manifest must match the serial
# reference byte for byte).
#
# Every background process goes through start, and the EXIT trap kills
# and reaps whatever is still running, so a failing or interrupted
# stage leaves no process behind. JSON answers are read with field,
# which fails unless its key occurs exactly once: a renamed field fails
# its check instead of silently matching nothing.
#
# Run via `make verify` or directly: ./scripts/verify.sh (needs curl and jq).
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
declare -A pid=()
cleanup() {
    local p
    for p in "${pid[@]}"; do kill -KILL "$p" 2>/dev/null || true; done
    for p in "${pid[@]}"; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# fail <message> [file...]: print the message, then the named files
# under $tmp (logs, answers), to stderr and exit 1.
fail() {
    echo "verify: $1" >&2
    shift
    local f
    for f; do cat "$tmp/$f" >&2 || true; done
    exit 1
}

# start <name> <command...>: run the command in the background, its
# output appended to $tmp/<name>.log, and record its pid under name.
start() {
    local name=$1
    shift
    "$@" >>"$tmp/$name.log" 2>&1 &
    pid[$name]=$!
}

# stop [-KILL|-0] <name>...: send the named processes SIGTERM (SIGKILL
# to crash them; -0 sends nothing), wait for each and forget it. Every
# process not killed must exit 0: each service drains and exits cleanly
# on SIGTERM, and a load run exits non-zero when it fails its gates.
stop() {
    local sig=-TERM name rc
    if [[ $1 == -* ]]; then
        sig=$1
        shift
    fi
    for name; do
        kill "$sig" "${pid[$name]}" 2>/dev/null || true
        rc=0
        wait "${pid[$name]}" 2>/dev/null || rc=$?
        unset "pid[$name]"
        [ "$sig" = -KILL ] || [ "$rc" = 0 ] || fail "$name exited with status $rc, not 0" "$name.log"
    done
}

# poll <tries> <command...>: run the command every 0.1 s until it
# succeeds; fails after the given number of tries.
poll() {
    local n=$1
    shift
    for ((; n > 0; n--)); do
        "$@" >/dev/null 2>&1 && return
        sleep 0.1
    done
    return 1
}

# wait_up <name> <url> [tries]: poll the URL until it answers 2xx (50
# tries by default); on timeout fail with name's log.
wait_up() {
    poll "${3:-50}" curl -fsS -o /dev/null "$2" || fail "$1 never answered $2" "$1.log"
}

# field <key[.key...]> [file]: print the one JSON value whose key path,
# array indices skipped, ends in these keys (read stdin without a
# file). Fails when the key is absent or occurs more than once: the
# loadgen report holds four "mismatches", and only probe.mismatches is
# the prober's.
field() {
    local json
    json=$(cat "${2:-/dev/stdin}")
    jq -rn --arg k "$1" '($k | split(".")) as $s | input
        | [paths(type | . != "object" and . != "array") as $p
           | select([$p[] | strings] | .[-($s | length):] == $s) | getpath($p)]
        | if length == 1 then .[0] else error("\(length) values") end' <<<"$json" \
        || fail "want exactly one '$1' in ${2:-the answer}: $json"
}

# counter <url> <series>: the value of one exact series on <url>/metrics
# (0 when absent).
counter() { curl -sS "$1/metrics" | awk -v s="$2" '$1 == s { v = $2 } END { print v + 0 }'; }

# promoted <url> <job-id> [file...]: wait up to 60 s for the job to end,
# and fail with its JSON and the named files unless it was promoted.
promoted() {
    local url=$1 job=$2 state=""
    shift 2
    for _ in $(seq 600); do
        state=$(curl -sS "$url/v1/jobs/$job" | tee "$tmp/job.json" | field state)
        case $state in promoted) return ;; rejected | failed | canceled) break ;; esac
        sleep 0.1
    done
    fail "job $job ended in state '$state' (want promoted)" job.json "$@"
}

# same_hashes <url> <serial-job> <job>: the manifests the two jobs
# promoted must agree on data_hash and model_hash.
same_hashes() {
    local job mid f a b
    for job in "$2" "$3"; do
        mid=$(curl -sS "$1/v1/jobs/$job" | field manifest_id)
        curl -sS -o "$tmp/$job.manifest" "$1/v1/store/manifests/$mid"
    done
    for f in data_hash model_hash; do
        a=$(field "$f" "$tmp/$2.manifest")
        b=$(field "$f" "$tmp/$3.manifest")
        [ -n "$a" ] && [ "$a" = "$b" ] || fail "$f diverged: serial '$a' vs job $3 '$b'"
    done
}

command -v jq >/dev/null || fail "jq is required to read JSON answers"

echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || fail "gofmt would reformat: $unformatted"

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

echo "== go test -race (concurrent packages) =="
# The race detector slows the full internal/exp table/figure drivers past
# the per-package test timeout, so the race pass targets the packages
# that actually share state across goroutines: the HTTP shell and
# service, the LRU response cache, the predictor it serves concurrently,
# the forest trainer and the model file and request decoders that
# reloads and requests run at once, the trace fan-out layer, and the
# parallel collection engine. internal/exp
# joins with its dedicated micro-settings parallel-pipeline tests.
go test -race -count=1 ./internal/httpd/... ./internal/serve/... ./internal/fleet/... ./internal/member/... ./internal/cache/... ./internal/napel/... ./internal/ml/rf/... ./internal/jsonread/... ./internal/trace/... ./internal/lifecycle/... ./internal/collectd/... ./internal/obs/... ./internal/obsd/... ./internal/resilience/...
go test -race -count=1 -run 'Parallel' ./internal/exp/...

echo "== run each decode-path benchmark once =="
# go test compiles benchmarks but never runs them, so a benchmark whose
# fixture broke would go unnoticed until someone measured with it.
go test -run '^$' -bench . -benchtime 1x ./internal/jsonread ./internal/ml/rf ./internal/napel ./internal/serve

echo "== the benchmark module: go vet and go test =="
# bench/ is a module of its own, so the stages above never compile it,
# yet it imports loadgen, serve, fleet, cache and obs. go build ./...
# would leave the benchmark binary in bench/.
(cd bench && go vet ./... && go test ./...)

echo "== fuzz the model file decoder (10 s) =="
# A model can arrive as untrusted bytes over -model-store. The seed
# corpus runs in every go test; this stage searches past it, checking
# LoadPredictor against the encoding/json reference decode. Minimizing
# an input as long as the ~12 KB seeds can take seconds, so each
# minimization is capped at 100 calls: from an empty fuzz cache a 2 s
# time cap left 10 s runs at 5-9 k execs, mostly stalled at 0/s, and
# 100 calls ran 61-69 k without a stall.
go test -run '^$' -fuzz FuzzLoadPredictor -fuzztime 10s -fuzzminimizetime 100x ./internal/napel

echo "== fuzz the scrape and traceparent parsers (10 s each) =="
# napel-obsd and napel-loadgen parse other processes' /metrics, and every
# service parses the traceparent header of any client.
go test -run '^$' -fuzz FuzzParseExposition -fuzztime 10s ./internal/obs
go test -run '^$' -fuzz FuzzParseTraceParent -fuzztime 10s ./internal/obs

echo "== fuzz the JSON reader (10 s) =="
# Model files and every predict body are read with jsonread; FuzzReader
# checks the reader against encoding/json, and Float's conversion
# against strconv. Each minimization is capped at 100 calls, as for
# FuzzLoadPredictor: from an empty fuzz cache the default 60 s cap left
# 10 s runs at 36-164 k execs, one stalled at 0/s from 3 s on, and 100
# calls ran 268-287 k without a stall.
go test -run '^$' -fuzz FuzzReader -fuzztime 10s -fuzzminimizetime 100x ./internal/jsonread

echo "== fuzz the fleet join body (10 s) =="
# Any client can POST /v1/fleet/join; an accepted URL must be a bare
# http(s) scheme://host[:port] that the gate can append its paths to.
go test -run '^$' -fuzz FuzzJoinBody -fuzztime 10s ./internal/fleet

echo "== fuzz the request decoder (10 s) =="
# napel-serve decodes every predict, batch and suitability body with its
# own one-pass decoder; FuzzDecodeRequest checks it against encoding/json
# plus the map-form assembly. Minimizing a ~13 KB seed can take seconds,
# so each minimization is capped at 100 calls, as for FuzzLoadPredictor
# (1-2 k execs in 10 s with a 2 s time cap, 30-34 k with this one).
go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 100x ./internal/serve

echo "== fuzz the collection journal replay (10 s) =="
# A restarted napel-traind replays whatever bytes a crash or a damaged
# disk left in its -collect-journal; only a torn tail is expected.
go test -run '^$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/collectd

echo "== fuzz the fault-plan grammar (10 s) =="
# Every binary parses its -chaos-spec with faultpoint.ParsePlan; a rule
# it accepts must be able to fire, and a seed must replay its faults.
go test -run '^$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/resilience/faultpoint

echo "== napel-serve smoke test =="
go build -o "$tmp/" ./cmd/napel ./cmd/napel-serve ./cmd/napel-traind \
    ./cmd/napel-worker ./cmd/napel-loadgen ./cmd/napel-gate ./cmd/napel-obsd

# A deliberately tiny model: one kernel, scaled inputs, small budgets —
# this trains in about a second and is only used to exercise the wire.
"$tmp/napel" train -kernels atax -train-scale 32 \
    -train-sim-budget 20000 -train-profile-budget 20000 \
    -out "$tmp/model.json" >/dev/null
# Saved models are format version 3: a one-line JSON header whose
# forests count their trees' nodes, then the nodes themselves, 16 raw
# bytes each, and nothing else. Every later stage runs on that layout.
head -n1 "$tmp/model.json" | jq -e '.version == 3 and ([.ipc.forest, .epi.forest]
    | all(has("node_counts") and (has("nodes") | not) and (has("trees") | not)))' >/dev/null \
    || fail "model.json header is not version 3 with node counts: $(head -c 200 "$tmp/model.json")"
header_bytes=$(head -n1 "$tmp/model.json" | wc -c)
nodes=$(head -n1 "$tmp/model.json" | jq '[.ipc.forest, .epi.forest | .node_counts[]] | add')
model_bytes=$(wc -c <"$tmp/model.json")
[ "$model_bytes" -eq $((header_bytes + 16 * nodes)) ] \
    || fail "model.json is $model_bytes bytes, want a $header_bytes-byte header line and $nodes 16-byte nodes"
"$tmp/napel" export-profile -kernel atax -scale 32 -max-iters 1 \
    -budget 20000 -out "$tmp/req.json"

# Each server takes the next port from a random base.
port=$((RANDOM % 20000 + 20000))
prom='text/plain; version=0.0.4; charset=utf-8'
spec='"kernels":["atax"],"train_scale":32,"max_iters":1,
    "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":2'

url=http://127.0.0.1:$((++port))
start serve "$tmp/napel-serve" -model "$tmp/model.json" -addr "${url#http://}" -quiet
wait_up serve "$url/healthz"
health=$(curl -sS -o /dev/null -w '%{http_code}' "$url/healthz")
predict=$(curl -sS -o "$tmp/resp.json" -w '%{http_code}' -d @"$tmp/req.json" "$url/v1/predict")
[ "$health" = 200 ] && [ "$predict" = 200 ] \
    || fail "healthz=$health predict=$predict (want 200/200)" resp.json
grep -q '"edp"' "$tmp/resp.json" || fail "predict response has no edp field" resp.json

# Observability surface: /metrics must speak exposition format 0.0.4 and
# carry the request just made; /debug/traces must show its spans.
ct=$(curl -sS -o "$tmp/metrics.txt" -w '%{content_type}' "$url/metrics")
[ "$ct" = "$prom" ] || fail "/metrics content type '$ct'"
for series in napel_build_info napel_serve_requests_total \
    napel_serve_predict_stage_seconds_bucket napel_serve_cache_misses_total; do
    grep -q "$series" "$tmp/metrics.txt" || fail "/metrics missing $series" metrics.txt
done
curl -sS -o "$tmp/traces.json" "$url/debug/traces?name=predict"
grep -q '"http.predict"' "$tmp/traces.json" || fail "/debug/traces has no http.predict trace" traces.json

stop serve
echo "smoke test: healthz=$health predict=$predict, clean SIGTERM drain"

echo "== napel-traind lifecycle smoke test =="
turl=http://127.0.0.1:$((++port))
start traind "$tmp/napel-traind" -store "$tmp/store" -addr "${turl#http://}"
wait_up traind "$turl/healthz"

# Submit a deliberately tiny job and wait for canary promotion.
job=$(curl -sS -d "{$spec}" "$turl/v1/jobs" | field id)
promoted "$turl" "$job" traind.log
curl -sS -o "$tmp/store.json" "$turl/v1/store"
grep -q '"model_hash"' "$tmp/store.json" || fail "store has no promoted manifest after promotion" store.json

# The daemon's observability surface after one promoted job.
ct=$(curl -sS -o "$tmp/tmetrics.txt" -w '%{content_type}' "$turl/metrics")
[ "$ct" = "$prom" ] || fail "traind /metrics content type '$ct'"
for series in napel_build_info napel_traind_promotions_total \
    napel_traind_job_stage_seconds_bucket napel_engine_unit_seconds_count; do
    grep -q "$series" "$tmp/tmetrics.txt" || fail "traind /metrics missing $series" tmetrics.txt
done
curl -sS -o "$tmp/ttraces.json" "$turl/debug/traces?name=job"
grep -q '"engine.unit"' "$tmp/ttraces.json" \
    || fail "traind /debug/traces has no engine.unit spans under the job trace" ttraces.json

# The promoted pointer must be directly servable by napel-serve.
lurl=http://127.0.0.1:$((++port))
start serve2 "$tmp/napel-serve" -model "$tmp/store/current-model.json" -addr "${lurl#http://}" -quiet
wait_up serve2 "$lurl/healthz"
lpredict=$(curl -sS -o "$tmp/resp2.json" -w '%{http_code}' -d @"$tmp/req.json" "$lurl/v1/predict")
[ "$lpredict" = 200 ] && grep -q '"edp"' "$tmp/resp2.json" \
    || fail "predict via promoted model: status=$lpredict" resp2.json
stop serve2 traind
echo "lifecycle smoke test: job $job promoted, served prediction status $lpredict"

echo "== chaos smoke test: lazy readiness =="
# A -lazy server starts with no model: /healthz (liveness) must be 200
# while /readyz (readiness) is 503, and /readyz must flip to 200 once
# -follow installs a model at the watched path. The chaos flags ride
# along to prove the plan parser and injection plumbing work end to end.
rurl=http://127.0.0.1:$((++port))
chaos_model="$tmp/chaos-model.json" # does not exist yet
start lazy "$tmp/napel-serve" -model "$chaos_model" -lazy -follow 200ms \
    -chaos-seed 7 -chaos-spec 'serve.reload:0.05' -addr "${rurl#http://}" -quiet
wait_up lazy "$rurl/healthz"
ready=$(curl -sS -o /dev/null -w '%{http_code}' "$rurl/readyz")
[ "$ready" = 503 ] || fail "/readyz=$ready before any model (want 503)"
cp "$tmp/model.json" "$chaos_model"
wait_up lazy "$rurl/readyz" 300
cpredict=$(curl -sS -o "$tmp/resp3.json" -w '%{http_code}' -d @"$tmp/req.json" "$rurl/v1/predict")
[ "$cpredict" = 200 ] || fail "predict after lazy load: status=$cpredict" resp3.json
curl -sS -o "$tmp/chaos-metrics.txt" "$rurl/metrics"
for series in napel_serve_ready napel_resilience_breaker_state napel_chaos_injected_total \
    napel_serve_follow_failures_total napel_serve_model_reloads_total; do
    grep -q "$series" "$tmp/chaos-metrics.txt" || fail "lazy server /metrics missing $series" chaos-metrics.txt
done
stop lazy
echo "chaos smoke test: readyz 503 -> 200, predict $cpredict"

echo "== chaos smoke test: traind promotes under injected faults =="
# A traind with ~16% of atomic file operations failing (torn writes and
# sync errors, deterministic under the fixed seed) must still drive a
# job to promotion through its retry loop.
curl_traind=http://127.0.0.1:$((++port))
start chaos-traind "$tmp/napel-traind" -store "$tmp/chaos-store" -addr "${curl_traind#http://}" \
    -chaos-seed 7 -chaos-spec 'atomicfile.write:0.08:partial,atomicfile.sync:0.08'
wait_up chaos-traind "$curl_traind/healthz"
# Submission itself can hit an injected fault; retry a few times.
cjob=""
for _ in $(seq 10); do
    cjob=$(curl -sS -d "{$spec,\"max_retries\":10}" "$curl_traind/v1/jobs" | field id 2>/dev/null) && break
    sleep 0.2
done
[ -n "$cjob" ] || fail "chaos job submission failed" chaos-traind.log
promoted "$curl_traind" "$cjob" chaos-traind.log
injected=$(counter "$curl_traind" napel_chaos_injected_total)
[ "$injected" != 0 ] || fail "chaos traind reports no injected faults (napel_chaos_injected_total=$injected)"
stop chaos-traind
echo "chaos smoke test: job $cjob promoted with $injected injected faults"

echo "== collectd smoke test: distributed collection is byte-identical =="
# One traind runs the same tiny two-kernel job twice: first in-process
# (the serial reference), then with "distributed": true so every
# (kernel, input) unit is leased over HTTP to two napel-worker
# processes — one of which is killed mid-run, so its leases expire and
# requeue onto the survivor. The promoted manifests must agree on
# data_hash AND model_hash: the distributed dataset assembled from
# remote payloads is byte-identical to the serial one.
wurl=http://127.0.0.1:$((++port))
start collectd-traind "$tmp/napel-traind" -store "$tmp/collectd-store" -addr "${wurl#http://}" -lease-ttl 1s
wait_up collectd-traind "$wurl/healthz"
dspec='"kernels":["atax","mvt"],"train_scale":32,"max_iters":1,
    "profile_budget":20000,"sim_budget":20000,"train_archs":2,"workers":4'
sjob=$(curl -sS -d "{$dspec}" "$wurl/v1/jobs" | field id)
promoted "$wurl" "$sjob" collectd-traind.log

# Two workers lease from the daemon's own admin listener.
start collectd-w1 "$tmp/napel-worker" -coordinator "$wurl" -id smoke-w1 -poll 20ms
start collectd-w2 "$tmp/napel-worker" -coordinator "$wurl" -id smoke-w2 -poll 20ms
djob=$(curl -sS -d "{$dspec,\"distributed\":true}" "$wurl/v1/jobs" | field id)
# Kill one worker mid-run; its in-flight lease expires and requeues.
sleep 0.4
stop -KILL collectd-w2
promoted "$wurl" "$djob" collectd-traind.log collectd-w1.log
same_hashes "$wurl" "$sjob" "$djob"
# The units really travelled through the coordinator, not in-process.
completes=$(counter "$wurl" 'napel_collectd_completes_total{result="ok"}')
[ "$completes" != 0 ] || fail "coordinator reports no completed leases (napel_collectd_completes_total=$completes)"
stop collectd-w1 collectd-traind
echo "collectd smoke test: serial and distributed manifests agree ($completes leases completed, 1 worker killed mid-run)"

echo "== loadgen smoke test: deterministic replay =="
# Two napel-loadgen runs with the same seed against the same server must
# attest identical request schedules (schedule/body digests) and pass
# their SLO gates, with the correctness prober verifying sampled
# responses against the local model file.
gurl=http://127.0.0.1:$((++port))
start lg-serve "$tmp/napel-serve" -model "$tmp/model.json" -addr "${gurl#http://}" -quiet
wait_up lg-serve "$gurl/healthz"
for run in 1 2; do
    "$tmp/napel-loadgen" -target "$gurl" -requests 300 -workers 4 \
        -seed 11 -keyspace 8 -base "$tmp/req.json" \
        -probe-model "$tmp/model.json" -probe-every 2 \
        -max-error-rate 0 -out "$tmp/lg$run.json" 2>"$tmp/lg$run.log" \
        || fail "loadgen run $run failed" "lg$run.log"
done
for f in body_digest schedule_digest; do
    d1=$(field "$f" "$tmp/lg1.json")
    d2=$(field "$f" "$tmp/lg2.json")
    [ -n "$d1" ] && [ "$d1" = "$d2" ] || fail "$f diverged between same-seed runs ('$d1' vs '$d2')"
done
probed=$(field probe.checked "$tmp/lg1.json")
[ "$probed" -gt 0 ] || fail "loadgen prober checked no responses" lg1.json
stop lg-serve
echo "loadgen smoke test: schedule digest $d1 replayed, $probed responses probed"

echo "== chaos smoke test: degraded serving under load holds its SLO =="
# A serve instance with 20% of predictions failing (deterministic plan)
# and a single-entry response cache (so faults actually hit the predict
# path instead of the LRU) must keep serving under load: last-good
# answers downgrade faults to degraded 200s, so the run must see
# degraded answers (-expect-degraded) while hard errors — only the
# variants whose first-ever request faults — stay within a relaxed
# error budget.
durl=http://127.0.0.1:$((++port))
start chaos-serve "$tmp/napel-serve" -model "$tmp/model.json" -addr "${durl#http://}" -quiet \
    -cache-entries 1 -chaos-seed 7 -chaos-spec 'serve.predict:0.2'
wait_up chaos-serve "$durl/healthz"
"$tmp/napel-loadgen" -target "$durl" -requests 400 -workers 4 \
    -seed 23 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/model.json" \
    -expect-degraded -max-error-rate 0.2 -out "$tmp/chaos-load.json" \
    2>"$tmp/chaos-load.log" \
    || fail "chaos-under-load run failed its gates" chaos-load.log chaos-load.json
stop chaos-serve
echo "chaos smoke test: degraded answers served under injected faults, SLO held"

echo "== fleet smoke test: store-driven replicas behind napel-gate =="
# The full distribution path: two -lazy replicas come up against an
# empty store (unready), traind then trains and promotes a model, and
# the gate rolls a fleet-wide hot-install one replica at a time — each
# pulling the blob from the store's HTTP API, sha256-verified on
# receipt. Loadgen then drives the gate with
# the promoted model file as its correctness oracle: every probed
# response must be bit-identical to a local evaluation, proving gate
# routing neither corrupts nor mixes up requests.
furl=http://127.0.0.1:$((++port))
start fleet-traind "$tmp/napel-traind" -store "$tmp/fleet-store" -addr "${furl#http://}"
wait_up fleet-traind "$furl/healthz"
# Two lazy replicas pulling from the store over HTTP. The store is
# still empty, so their eager first pull finds no promoted lineage:
# live immediately, unready until the rolling reload installs the
# model that traind promotes below.
r1url=http://127.0.0.1:$((++port))
r2url=http://127.0.0.1:$((++port))
gateurl=http://127.0.0.1:$((++port))
start fleet-r1 "$tmp/napel-serve" -model-store "$furl" -lazy -addr "${r1url#http://}" -quiet
start fleet-r2 "$tmp/napel-serve" -model-store "$furl" -lazy -addr "${r2url#http://}" -quiet
start fleet-gate "$tmp/napel-gate" -addr "${gateurl#http://}" \
    -replicas "$r1url,$r2url" -health-interval 100ms
wait_up fleet-gate "$gateurl/healthz"
wait_up fleet-r1 "$r1url/healthz"
wait_up fleet-r2 "$r2url/healthz"
ready=$(curl -sS -o /dev/null -w '%{http_code}' "$r1url/readyz")
[ "$ready" = 503 ] || fail "lazy store replica /readyz=$ready before install (want 503)"

# Now publish something to distribute: train + promote through traind.
fjob=$(curl -sS -d "{$spec}" "$furl/v1/jobs" | field id)
promoted "$furl" "$fjob" fleet-traind.log

# Fleet-wide rolling hot-install through the gate.
roll=$(curl -sS -o "$tmp/fleet-roll.json" -w '%{http_code}' -X POST "$gateurl/v1/fleet/reload")
[ "$roll" = 200 ] || fail "rolling reload: HTTP $roll" fleet-roll.json fleet-gate.log
for rurl in "$r1url" "$r2url"; do
    ready=$(curl -sS -o /dev/null -w '%{http_code}' "$rurl/readyz")
    [ "$ready" = 200 ] || fail "replica $rurl /readyz=$ready after rolling reload (want 200)"
done

# Drive the gate; the promoted model file is the correctness oracle.
"$tmp/napel-loadgen" -target "$gateurl" -requests 300 -workers 4 \
    -seed 31 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/fleet-store/current-model.json" -probe-every 2 \
    -max-error-rate 0 -topology "gate+2x serve" \
    -scrape-targets "$r1url,$r2url" -out "$tmp/fleet-lg.json" \
    2>"$tmp/fleet-lg.log" \
    || fail "fleet loadgen run failed its gates" fleet-lg.log fleet-gate.log
fprobed=$(field probe.checked "$tmp/fleet-lg.json")
fmism=$(field probe.mismatches "$tmp/fleet-lg.json")
[ "$fprobed" -gt 0 ] && [ "$fmism" = 0 ] \
    || fail "fleet probe checked=$fprobed mismatches=$fmism (want >0 and 0)" fleet-lg.json
stop fleet-r1 fleet-r2 fleet-gate fleet-traind
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
t1url=http://127.0.0.1:$((++port))
t2url=http://127.0.0.1:$((++port))
tgateurl=http://127.0.0.1:$((++port))
obsurl=http://127.0.0.1:$((++port))
start trace-r1 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${t1url#http://}" -quiet \
    -trace-push "$obsurl"
start trace-r2 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${t2url#http://}" -quiet \
    -trace-push "$obsurl"
start trace-gate "$tmp/napel-gate" -addr "${tgateurl#http://}" -replicas "$t1url,$t2url" \
    -health-interval 100ms -trace-push "$obsurl"
start trace-obsd "$tmp/napel-obsd" -addr "${obsurl#http://}" -scrape-interval 200ms \
    -targets "gate=$tgateurl,serve=$t1url,serve=$t2url"
wait_up trace-gate "$tgateurl/readyz"
wait_up trace-obsd "$obsurl/healthz"
"$tmp/napel-loadgen" -target "$tgateurl" -requests 200 -workers 4 \
    -seed 7 -keyspace 8 -base "$tmp/req.json" -trace-push "$obsurl" \
    -max-error-rate 0 -out "$tmp/trace-lg.json" 2>"$tmp/trace-lg.log" \
    || fail "trace loadgen run failed" trace-lg.log
# Pushers flush every second (and on loadgen exit); obsd scrapes every
# 200ms. Poll until a cross-process trace and the merged series appear.
fleet_trace() {
    curl -sS -o "$tmp/trace-fleet.json" "$obsurl/debug/fleet?limit=50"
    grep -q '"process_count":3' "$tmp/trace-fleet.json"
}
poll 100 fleet_trace \
    || fail "/debug/fleet never assembled a trace spanning 3 processes" trace-fleet.json trace-obsd.log
for probe in napel-loadgen napel-gate napel-serve; do
    grep -q "\"$probe\"" "$tmp/trace-fleet.json" || fail "/debug/fleet names no $probe spans" trace-fleet.json
done
curl -sS -o "$tmp/trace-metrics.txt" "$obsurl/metrics"
for series in "napel_fleet_up{job=\"gate\",instance=\"${tgateurl#http://}\"} 1" \
    "napel_fleet_up{job=\"serve\",instance=\"${t1url#http://}\"} 1" \
    'napel_serve_requests_total{job="serve"' \
    'napel_fleet_gate_requests_total{job="gate"' \
    napel_obsd_spans_total; do
    grep -qF "$series" "$tmp/trace-metrics.txt" || fail "obsd /metrics missing '$series'" trace-metrics.txt
done
stop trace-r1 trace-r2 trace-gate trace-obsd
echo "fleet-trace smoke test: cross-process trace assembled, merged fleet series exported"

echo "== membership chaos smoke test: kill a replica under load, evict, readmit =="
# Three ready replicas front a gate — two from the static -replicas
# seed, one joining at runtime via napel-serve -join. A
# zero-hard-error loadgen run then drives the gate while one replica
# is SIGKILLed: the prober must evict it within -evict-after probe
# intervals (the ring epoch advances, replicas_ready drops to 2) while
# ring failover keeps the error budget at zero. Restarting the dead
# replica must readmit it at a yet-higher epoch with no gate restart.
m1url=http://127.0.0.1:$((++port))
m2url=http://127.0.0.1:$((++port))
m3url=http://127.0.0.1:$((++port))
mgateurl=http://127.0.0.1:$((++port))
start member-r1 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${m1url#http://}" -quiet
start member-r2 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${m2url#http://}" -quiet
start member-gate "$tmp/napel-gate" -addr "${mgateurl#http://}" -replicas "$m1url,$m2url" \
    -health-interval 50ms -evict-after 2
# The third replica has no seed entry: it registers itself.
start member-r3 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${m3url#http://}" -quiet \
    -join "$mgateurl" -join-interval 200ms
gate_ready_n() { [ "$(curl -sS "$mgateurl/readyz" | field replicas_ready)" = "$1" ]; }
poll 100 gate_ready_n 3 || fail "gate never saw 3 ready replicas (static seed + join)" member-gate.log member-r3.log
grep -q "announced" "$tmp/member-r3.log" || fail "joining replica never logged its announce" member-r3.log
epoch0=$(curl -sS "$mgateurl/readyz" | field epoch)
start member-lg "$tmp/napel-loadgen" -target "$mgateurl" -duration 3s -workers 4 \
    -seed 43 -keyspace 8 -base "$tmp/req.json" \
    -probe-model "$tmp/model.json" -probe-every 2 \
    -max-error-rate 0 -out "$tmp/member-lg.json"
sleep 0.5
stop -KILL member-r2
# Eviction within -evict-after probe intervals (2 x 50ms; poll allows
# scheduler noise but stays an order of magnitude under the load run).
poll 25 gate_ready_n 2 || fail "killed replica was never evicted from the ring" member-gate.log
epoch1=$(curl -sS "$mgateurl/readyz" | field epoch)
[ "$epoch1" -gt "$epoch0" ] || fail "eviction did not advance the ring epoch ($epoch0 -> $epoch1)"
# The load run must pass its zero-error gate through the churn.
stop -0 member-lg
# The replica restarts on its old address; the prober readmits it.
start member-r2 "$tmp/napel-serve" -model "$tmp/model.json" -addr "${m2url#http://}" -quiet
poll 100 gate_ready_n 3 \
    || fail "restarted replica was never readmitted to the ring" member-gate.log member-r2.log
epoch2=$(curl -sS "$mgateurl/readyz" | field epoch)
[ "$epoch2" -gt "$epoch1" ] || fail "readmission did not advance the ring epoch ($epoch1 -> $epoch2)"
# The ring-change accounting must agree with what just happened.
for change in evict readmit; do
    n=$(counter "$mgateurl" "napel_fleet_ring_changes_total{change=\"$change\"}")
    [ "$n" != 0 ] || fail "gate counted no $change ring changes"
done
stop member-r1 member-r2 member-r3 member-gate
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
jurl=http://127.0.0.1:$((++port))
journal_traind=("$tmp/napel-traind" -store "$tmp/journal-store" -addr "${jurl#http://}"
    -lease-ttl 1s -collect-journal "$tmp/collect.journal" -checkpoint-every 1h)
start journal-traind "${journal_traind[@]}"
wait_up journal-traind "$jurl/healthz"
jsjob=$(curl -sS -d "{$dspec}" "$jurl/v1/jobs" | field id)
promoted "$jurl" "$jsjob" journal-traind.log
# Tagged workers; a small -reconnect-max keeps the post-kill outage
# short. The job requires tag hmc, which both advertise.
start journal-w1 "$tmp/napel-worker" -coordinator "$jurl" -id journal-w1 -tags hmc,x86 \
    -poll 20ms -reconnect-max 1s
start journal-w2 "$tmp/napel-worker" -coordinator "$jurl" -id journal-w2 -tags hmc \
    -poll 20ms -reconnect-max 1s
jdjob=$(curl -sS -d "{$dspec,\"distributed\":true,\"tags\":[\"hmc\"]}" "$jurl/v1/jobs" | field id)
# SIGKILL the coordinator once the journal holds something to replay.
lease_completed() { [ "$(counter "$jurl" 'napel_collectd_completes_total{result="ok"}')" != 0 ]; }
poll 100 lease_completed \
    || fail "no lease ever completed before the kill window closed" journal-traind.log journal-w1.log
stop -KILL journal-traind
# Hold the coordinator down long enough that the workers' *lease
# polls* actually fail — only those drive the unreachable/reachable
# transition. A short outage is invisible to a busy worker: finishing
# its in-flight unit (~1.5s worst case here) and then the delivery's
# own retry chain (5 attempts, ~3.5s of jittered backoff) can bridge
# the gap entirely, after which the next poll just succeeds. Seven
# seconds outlasts both, so every worker lands in the backoff loop
# before the restart.
sleep 7
start journal-traind "${journal_traind[@]}"
wait_up journal-traind "$jurl/healthz"
promoted "$jurl" "$jdjob" journal-traind.log journal-w1.log journal-w2.log
# The restart answered units from the journal, not by re-executing.
replays=$(counter "$jurl" napel_collectd_journal_replayed_total)
[ "$replays" != 0 ] || fail "restarted coordinator replayed nothing from the journal" journal-traind.log
same_hashes "$jurl" "$jsjob" "$jdjob"
# The workers rode out the coordinator outage on their backoff loop.
grep -q "reachable again" "$tmp/journal-w1.log" "$tmp/journal-w2.log" \
    || fail "no worker logged reconnecting after the coordinator restart" journal-w1.log journal-w2.log
stop journal-w1 journal-w2 journal-traind
echo "journal smoke test: coordinator SIGKILLed and resumed, $replays unit(s) replayed, manifests byte-identical"

echo "verify: OK"
