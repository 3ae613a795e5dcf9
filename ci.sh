#!/usr/bin/env bash
# ci.sh — the repository's continuous-integration gate, runnable locally
# and from .github/workflows/ci.yml. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...
# The commands the stages below drive, each built once.
CI_BIN=$(mktemp -d /tmp/ci_bin.XXXXXX)
trap 'rm -rf "$CI_BIN"' EXIT
go build -o "$CI_BIN/" ./cmd/cenlint ./cmd/centrace ./cmd/cenfuzz ./cmd/censerved ./cmd/experiments

echo "==> gofmt gate"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
  echo "gofmt needed on:"; echo "$UNFORMATTED"; exit 1
fi

# Unified static-analysis stage: stock vet over everything (this
# includes internal/obs, whose ad-hoc `go vet ./internal/obs/` line was
# promoted here), then cenlint — the repo's own go/analysis-style suite
# enforcing the determinism and persistence invariants, now
# interprocedurally (DESIGN.md §17): cross-package taint chains, pooled
# aliases escaping their release point, lock discipline, unstoppable
# goroutines. The suite runs twice against one summary cache: the cold
# run populates it, the warm run must be served entirely from it and be
# faster — that pins the cache keying (a stale hit would also desync
# findings). Both timings land in BENCH_lint.json.
echo "==> go vet ./..."
go vet ./...
echo "==> cenlint ./... (cold, then warm from summary cache)"
CENLINT_CACHE=$(mktemp -d /tmp/ci_cenlint_cache.XXXXXX)
"$CI_BIN/cenlint" -cache "$CENLINT_CACHE" -timing /tmp/ci_lint_cold.json ./...
"$CI_BIN/cenlint" -cache "$CENLINT_CACHE" -timing /tmp/ci_lint_warm.json ./...
jq -n --slurpfile c /tmp/ci_lint_cold.json --slurpfile w /tmp/ci_lint_warm.json \
  '{cold: $c[0], warm: $w[0]}' > BENCH_lint.json
jq -e '.warm.cache_hits == .warm.packages and .warm.packages > 0' BENCH_lint.json > /dev/null \
  || { echo "warm cenlint run missed the summary cache"; cat BENCH_lint.json; exit 1; }
jq -e '.warm.total_ms < .cold.total_ms' BENCH_lint.json > /dev/null \
  || { echo "warm cenlint run not faster than cold"; cat BENCH_lint.json; exit 1; }
echo "==> cenlint warm $(jq .warm.total_ms BENCH_lint.json)ms vs cold $(jq .cold.total_ms BENCH_lint.json)ms"
rm -rf "$CENLINT_CACHE" /tmp/ci_lint_cold.json /tmp/ci_lint_warm.json

echo "==> go test -race ./..."
# The lint engine first and explicitly: the driver analyzes packages in
# parallel while publishing summaries to one shared ipa.Program, so it
# runs under the race detector on every CI pass.
go test -race ./internal/lint/...
go test -race ./...

# The metric tallies are goroutine-private by contract (DESIGN.md §9): a
# tally shared across workers is a data race the detector only sees when
# the schedule interleaves the workers. So the packages that count and
# flush run three more times under -race, and so do middlebox and simnet,
# whose clones share every device and keep only its flow state apart
# (DESIGN.md §8), and topology, whose graph calls into the network
# subscribed to it under the graph's mutex. The output goes to a file
# first and is printed in full if any run fails, so a failure that does
# not reproduce still leaves its report.
echo "==> go test -race -count=3 (obs, topology, middlebox, simnet, centrace, cenfuzz, serve)"
RACE_LOG=$(mktemp /tmp/ci_race.XXXXXX)
if ! go test -race -count=3 ./internal/obs ./internal/topology ./internal/middlebox ./internal/simnet \
    ./internal/centrace ./internal/cenfuzz ./internal/serve > "$RACE_LOG" 2>&1; then
  echo "race stage failed; its output:"; cat "$RACE_LOG"; rm -f "$RACE_LOG"; exit 1
fi
rm -f "$RACE_LOG"

# Parallel measurement engine: benchmark the campaign worker pool at
# 1/2/4/8 workers and record the trajectory. The obs smoke below runs a
# real campaign at -workers=4 (clone isolation end to end).
echo "==> parallel campaign benchmarks -> BENCH_parallel.json"
go test -run '^$' -bench 'BenchmarkCampaignParallel' -benchtime 1x -json . > BENCH_parallel.json

# Hot-path allocation gate: the pooled packet plane, the copy-on-write
# world clone and the binary record codecs must stay allocation-flat.
# Record the five hot-path benches (packet forward on one connection, a
# fresh-flow probe, world clone, store append, journal append) with
# -benchmem, then fail if packet forwarding or the probe (Dial, payload,
# Close on a new 5-tuple, so it pays the per-flow path resolution)
# regresses above 8 allocs/op (steady state is 0 for both; the headroom
# absorbs one-off pool growth under -benchtime 2000x) or a world clone
# above 6 (it shares the world's shape, its devices and their indexes, so
# it allocates three objects: the network, its graph and its device
# flow-state slice, against 107 while each clone copied every device and
# 770 for a deep copy).
echo "==> hot-path benchmarks -> BENCH_hotpath.json"
go test -run '^$' -bench 'Benchmark(SimnetTransmit|SimnetProbe|WorldClone|StoreAppend|JournalAppend)$' \
  -benchmem -benchtime 2000x -json . > BENCH_hotpath.json
# The workers=1 campaign (72 targets, 3 repetitions) is recorded and
# gated too, at 10000 allocs/op: it makes about 8740, against 8840
# while each device kept its residual windows in a map freed for every
# target, 10650 while it built a prober per target and 15240 before each
# sweep reused a per-prober scratch and each ICMP quote became one block
# (DESIGN.md §8, §14). Its untimed first run warms the world's route
# caches, so from -benchtime 2x on its count varies by under ten.
go test -run '^$' -bench 'BenchmarkCampaignParallel/workers=1$' -benchmem -benchtime 5x -json . >> BENCH_hotpath.json
# test2json splits a result line into its name and its figures, so join
# the output pieces before picking the line apart.
bench_allocs() {
  jq -j 'select(.Action == "output") | .Output' BENCH_hotpath.json \
    | awk -v b="^$1-?[0-9]*[ \t]" '$0 ~ b && /allocs\/op/ { print $(NF-1) }'
}
TRANSMIT_ALLOCS=$(bench_allocs BenchmarkSimnetTransmit)
if [ -z "$TRANSMIT_ALLOCS" ] || [ "$TRANSMIT_ALLOCS" -gt 8 ]; then
  echo "packet-forward allocation regression: ${TRANSMIT_ALLOCS:-missing} allocs/op (gate: 8)"
  exit 1
fi
echo "==> packet forward at $TRANSMIT_ALLOCS allocs/op (gate: 8)"
PROBE_ALLOCS=$(bench_allocs BenchmarkSimnetProbe)
if [ -z "$PROBE_ALLOCS" ] || [ "$PROBE_ALLOCS" -gt 8 ]; then
  echo "fresh-flow probe allocation regression: ${PROBE_ALLOCS:-missing} allocs/op (gate: 8)"
  exit 1
fi
echo "==> fresh-flow probe at $PROBE_ALLOCS allocs/op (gate: 8)"
CLONE_ALLOCS=$(bench_allocs BenchmarkWorldClone)
if [ -z "$CLONE_ALLOCS" ] || [ "$CLONE_ALLOCS" -gt 6 ]; then
  echo "world-clone allocation regression: ${CLONE_ALLOCS:-missing} allocs/op (gate: 6)"
  exit 1
fi
echo "==> world clone at $CLONE_ALLOCS allocs/op (gate: 6)"
CAMPAIGN_ALLOCS=$(bench_allocs 'BenchmarkCampaignParallel/workers=1')
if [ -z "$CAMPAIGN_ALLOCS" ] || [ "$CAMPAIGN_ALLOCS" -gt 10000 ]; then
  echo "campaign allocation regression: ${CAMPAIGN_ALLOCS:-missing} allocs/op (gate: 10000)"
  exit 1
fi
echo "==> workers=1 campaign at $CAMPAIGN_ALLOCS allocs/op (gate: 10000)"

# Observability: benchmark the instrumented campaign against the
# uninstrumented one (BENCH_obs.json). The hot path counts in
# goroutine-private tallies flushed once per measurement (DESIGN.md §9),
# so the registry itself should cost nothing measurable. Then smoke real
# runs with metrics and trace emission, asserting the core series
# recorded work: a campaign, and single-target CenTrace and CenFuzz runs
# (a campaign never runs a prober on the CLI's own network, so it alone
# would not notice a measurement that fails to flush).
echo "==> obs overhead benchmarks -> BENCH_obs.json"
go test -run '^$' -bench 'BenchmarkCampaignObs' -benchtime 20x -json . > BENCH_obs.json
echo "==> obs smoke (-metrics-out/-trace-out)"
"$CI_BIN/centrace" -all -workers 4 -metrics-out /tmp/ci_obs_metrics.json -trace-out /tmp/ci_obs_trace.json > /dev/null
jq -e '.metrics | length > 0' /tmp/ci_obs_metrics.json > /dev/null
jq -e '[.metrics[] | select(.name == "centrace_targets_total") | .value] | add > 0' /tmp/ci_obs_metrics.json > /dev/null
jq -e '[.metrics[] | select(.name == "simnet_packets_forwarded_total") | .value] | add > 0' /tmp/ci_obs_metrics.json > /dev/null
jq -e '.spans | length > 0' /tmp/ci_obs_trace.json > /dev/null
"$CI_BIN/centrace" -endpoint az-ep-0-0 -metrics-out /tmp/ci_obs_single.json > /dev/null
jq -e '[.metrics[] | select(.name == "simnet_packets_forwarded_total") | .value] | add > 0' /tmp/ci_obs_single.json > /dev/null \
  || { echo "single-target centrace counted no packets"; exit 1; }
"$CI_BIN/cenfuzz" -strategy "Hostname Alt." -metrics-out /tmp/ci_obs_fuzz.json > /dev/null
jq -e '[.metrics[] | select(.name == "simnet_packets_forwarded_total") | .value] | add > 0' /tmp/ci_obs_fuzz.json > /dev/null \
  || { echo "cenfuzz counted no packets"; exit 1; }
rm -f /tmp/ci_obs_metrics.json /tmp/ci_obs_trace.json /tmp/ci_obs_single.json /tmp/ci_obs_fuzz.json
echo "==> obs smoke ok"

# A campaign whose journal cannot be written must not pass for a clean
# run: under a 256-block file-size limit the journal stops at 256 KiB,
# and centrace -all must exit non-zero with the journal's write error,
# which names the file, on stderr.
echo "==> journal write failure smoke (ulimit -f 256)"
JF_DIR=$(mktemp -d /tmp/ci_journal_full.XXXXXX)
if (ulimit -f 256; "$CI_BIN/centrace" -all -workers 2 -journal "$JF_DIR/full.journal" \
    > /dev/null 2> "$JF_DIR/stderr.txt"); then
  echo "centrace -all exited 0 though its journal hit the file-size limit"; exit 1
fi
grep -qF "$JF_DIR/full.journal" "$JF_DIR/stderr.txt" \
  || { echo "centrace -all did not name its failed journal on stderr:"; cat "$JF_DIR/stderr.txt"; exit 1; }
rm -rf "$JF_DIR"
echo "==> journal write failure smoke ok"

# Orchestration service: build the daemon, start it on loopback, drive a
# seeded centrace job through submit → poll → result, assert the payload
# and the service counters, then SIGTERM and assert a clean drain (exit 0,
# no torn store segments). Then restart on the same store: the replayed
# job reads done with its recorded digest, and the same spec resubmitted
# is a result-cache hit admitted straight to done, which holds only if
# the replayed spec's CanonKey equals the admission key.
echo "==> censerved smoke"
CENSERVED_STORE=$(mktemp -d /tmp/ci_censerved_store.XXXXXX)
CENSERVED_ADDR=127.0.0.1:8377
CENSERVED_SPEC='{"kind":"centrace","endpoint":"az-ep-0-0","domain":"www.globalblocked.example","seed":7}'
censerved_start() {
  "$CI_BIN/censerved" -listen "$CENSERVED_ADDR" -store "$CENSERVED_STORE" -workers 2 &
  CENSERVED_PID=$!
  for i in $(seq 1 50); do
    curl -sf "http://$CENSERVED_ADDR/healthz" > /dev/null && return 0
    sleep 0.1
    if ! kill -0 "$CENSERVED_PID" 2>/dev/null; then echo "censerved died on startup"; exit 1; fi
  done
}
censerved_start
JOB=$(curl -sf -X POST "http://$CENSERVED_ADDR/v1/jobs" -d "$CENSERVED_SPEC" | jq -r .id)
for i in $(seq 1 100); do
  STATE=$(curl -sf "http://$CENSERVED_ADDR/v1/jobs/$JOB" | jq -r .state)
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "censerved job failed"; curl -s "http://$CENSERVED_ADDR/v1/jobs/$JOB"; exit 1; }
  sleep 0.1
done
[ "$STATE" = done ] || { echo "censerved job not done after 10s (state=$STATE)"; exit 1; }
DIGEST=$(curl -sf "http://$CENSERVED_ADDR/v1/jobs/$JOB" | jq -r .digest)
curl -sf "http://$CENSERVED_ADDR/v1/results/$JOB" | jq -e '.valid == true and .blocked == true' > /dev/null
curl -sf "http://$CENSERVED_ADDR/metrics" | grep -q 'censerved_jobs_submitted_total{tenant="default"} 1'
curl -sf "http://$CENSERVED_ADDR/metrics" | grep -q 'censerved_jobs_done_total{kind="centrace"} 1'
# The job's measurement series are flushed before it reads done.
curl -sf "http://$CENSERVED_ADDR/metrics" | grep -q '^simnet_packets_forwarded_total [1-9]' \
  || { echo "no packets on /metrics once the job was done"; exit 1; }
kill -TERM "$CENSERVED_PID"
if ! wait "$CENSERVED_PID"; then echo "censerved drain exited nonzero"; exit 1; fi
# No torn segments: the export view must replay the binary segments with
# no repair warnings, as clean JSON, and still hold the finished job.
"$CI_BIN/censerved" -export-store -store "$CENSERVED_STORE" \
  > /tmp/ci_store_export.jsonl 2> /tmp/ci_store_export.err
if grep -q . /tmp/ci_store_export.err; then
  echo "store export warned:"; cat /tmp/ci_store_export.err; exit 1
fi
jq -ce . < /tmp/ci_store_export.jsonl > /dev/null || { echo "torn record in store export"; exit 1; }
jq -se --arg id "$JOB" 'map(select(.id == $id and .state == "done")) | length == 1' \
  < /tmp/ci_store_export.jsonl > /dev/null || { echo "job $JOB missing from store export"; exit 1; }
censerved_start
[ "$(curl -sf "http://$CENSERVED_ADDR/v1/jobs/$JOB" | jq -r '.state + " " + .digest')" = "done $DIGEST" ] \
  || { echo "job $JOB did not replay as done with digest $DIGEST"; curl -s "http://$CENSERVED_ADDR/v1/jobs/$JOB"; exit 1; }
[ "$(curl -sf "http://$CENSERVED_ADDR/v1/results/$JOB" | sha256sum | cut -d' ' -f1)" = "$DIGEST" ] \
  || { echo "replayed result of $JOB does not hash to $DIGEST"; exit 1; }
RESUBMIT=$(curl -sf -X POST "http://$CENSERVED_ADDR/v1/jobs" -d "$CENSERVED_SPEC" | jq -r .state)
[ "$RESUBMIT" = done ] || { echo "resubmitted spec not admitted straight to done (state=$RESUBMIT)"; exit 1; }
curl -sf "http://$CENSERVED_ADDR/metrics" | grep -qx 'censerved_cache_hits 1' \
  || { echo "resubmitted spec missed the result cache after restart"; exit 1; }
kill -TERM "$CENSERVED_PID"
if ! wait "$CENSERVED_PID"; then echo "restarted censerved drain exited nonzero"; exit 1; fi
rm -rf "$CENSERVED_STORE" /tmp/ci_store_export.jsonl /tmp/ci_store_export.err
echo "==> censerved smoke ok"

# Cluster smoke: a coordinator and two workers as real processes. One
# job replicates onto both workers with matching digests; then w1 is
# killed -9 and a second job must still finish on w2 alone (its w1 slot
# collapses in virtual time), with the served payload hashing to the
# recorded digest. Finally the cluster drains cleanly: the coordinator
# first (its final anti-entropy sweep tolerates the dead peer), then the
# surviving worker.
echo "==> cluster smoke (coordinator + 2 workers, kill -9 one)"
CL_COORD=127.0.0.1:8470; CL_W1=127.0.0.1:8471; CL_W2=127.0.0.1:8472
CL_DIR=$(mktemp -d /tmp/ci_cluster.XXXXXX)
"$CI_BIN/censerved" -role worker -node-id w1 -listen "$CL_W1" \
  -store "$CL_DIR/w1" -peers "http://$CL_COORD" -quiet &
CL_W1_PID=$!
"$CI_BIN/censerved" -role worker -node-id w2 -listen "$CL_W2" \
  -store "$CL_DIR/w2" -peers "http://$CL_COORD" -quiet &
CL_W2_PID=$!
"$CI_BIN/censerved" -role coordinator -listen "$CL_COORD" \
  -store "$CL_DIR/coord" -replication 2 \
  -peers "w1=http://$CL_W1,w2=http://$CL_W2" -quiet &
CL_COORD_PID=$!
for i in $(seq 1 50); do
  curl -sf "http://$CL_COORD/healthz" > /dev/null \
    && curl -sf "http://$CL_W1/healthz" > /dev/null \
    && curl -sf "http://$CL_W2/healthz" > /dev/null && break
  sleep 0.1
done
cl_wait_done() { # $1=job id, $2=max tenths of a second
  local state=
  for i in $(seq 1 "$2"); do
    state=$(curl -sf "http://$CL_COORD/v1/jobs/$1" | jq -r .state)
    [ "$state" = done ] && return 0
    case "$state" in failed|dead|conflict)
      echo "cluster job $1 terminal state $state"
      curl -s "http://$CL_COORD/v1/jobs/$1"; return 1;; esac
    sleep 0.1
  done
  echo "cluster job $1 not done (state=$state)"; return 1
}
cl_check_digest() { # served payload must hash to the recorded digest
  local digest got
  digest=$(curl -sf "http://$CL_COORD/v1/jobs/$1" | jq -r .digest)
  got=$(curl -sf "http://$CL_COORD/v1/results/$1" | sha256sum | cut -d' ' -f1)
  [ -n "$digest" ] && [ "$digest" = "$got" ] \
    || { echo "cluster job $1: payload sha256 $got != recorded digest $digest"; return 1; }
}
JOB_A=$(curl -sf -X POST "http://$CL_COORD/v1/jobs" \
  -d '{"kind":"centrace","endpoint":"az-ep-0-0","domain":"www.globalblocked.example","seed":7}' | jq -r .id)
cl_wait_done "$JOB_A" 100
curl -sf "http://$CL_COORD/v1/jobs/$JOB_A" \
  | jq -e '.replicas == ["w1","w2"]' > /dev/null \
  || { echo "job $JOB_A not on both replicas"; curl -s "http://$CL_COORD/v1/jobs/$JOB_A"; exit 1; }
cl_check_digest "$JOB_A"
kill -9 "$CL_W1_PID"; wait "$CL_W1_PID" 2>/dev/null || true
JOB_B=$(curl -sf -X POST "http://$CL_COORD/v1/jobs" \
  -d '{"kind":"centrace","endpoint":"az-ep-0-0","domain":"www.globalblocked.example","seed":8}' | jq -r .id)
cl_wait_done "$JOB_B" 300   # w1's replica slot must expire in virtual time first
curl -sf "http://$CL_COORD/v1/jobs/$JOB_B" \
  | jq -e '.replicas == ["w2"]' > /dev/null \
  || { echo "job $JOB_B replicas wrong after w1 kill"; curl -s "http://$CL_COORD/v1/jobs/$JOB_B"; exit 1; }
cl_check_digest "$JOB_B"
curl -sf "http://$CL_COORD/metrics" | grep -q '^censerved_cluster_collapses_total [1-9]' \
  || { echo "no slot collapse recorded after killing w1"; exit 1; }
kill -TERM "$CL_COORD_PID"
wait "$CL_COORD_PID" || { echo "coordinator drain exited nonzero"; exit 1; }
kill -TERM "$CL_W2_PID"
wait "$CL_W2_PID" || { echo "worker w2 drain exited nonzero"; exit 1; }
rm -rf "$CL_DIR"
echo "==> cluster smoke ok"

# Cluster throughput trajectory: 1 vs 3 workers through the full
# protocol, every digest asserted inside the benchmark itself.
echo "==> cluster benchmarks -> BENCH_cluster.json"
go test -run '^$' -bench 'BenchmarkClusterThroughput' -benchtime 30x -json \
  ./internal/cluster > BENCH_cluster.json

# Route dynamics + tomography: benchmark epoch recomputation and the
# tomography solver, then run the cross-validation experiment (churn
# tomography vs CenTrace) at two worker counts — output must be
# byte-identical and clear the 80% agreement gate.
echo "==> routing benchmarks -> BENCH_routing.json"
go test -run '^$' -bench 'Benchmark(EpochRecompute|TomographySolve)$' \
  -benchtime 100x -json . > BENCH_routing.json
echo "==> cross-validation experiment (tomography vs CenTrace)"
"$CI_BIN/experiments" -exp crossval -workers 1 > /tmp/ci_crossval_w1.txt
"$CI_BIN/experiments" -exp crossval -workers 4 > /tmp/ci_crossval_w4.txt
cmp /tmp/ci_crossval_w1.txt /tmp/ci_crossval_w4.txt \
  || { echo "crossval output differs across -workers"; exit 1; }
grep -q '^agreement-ok: true$' /tmp/ci_crossval_w1.txt \
  || { echo "crossval agreement below the 80% bar"; cat /tmp/ci_crossval_w1.txt; exit 1; }
rm -f /tmp/ci_crossval_w1.txt /tmp/ci_crossval_w4.txt
echo "==> cross-validation ok"

# Worker-count invariance through the CLIs: a corpus experiment and a
# faulted campaign (loss, duplication, a route flap) at 1 and 4 workers.
# The trace and the deterministic metrics must be byte-identical, and so
# must fig6's stdout; centrace's stdout names the worker count, so it is
# not compared. The metrics files' runtime section is wall-clock and
# scheduling-dependent by design, so only .metrics is compared.
# us-cli-r is the one router of the simulated world with an ECMP choice,
# so it is the one whose flap moves a path. Its two branches are equally
# long, so the metrics and the trace cannot show the flap; the journal's
# hop addresses do, and the flapped journal must differ from the same
# campaign's without -flap.
echo "==> worker-count invariance (experiments -exp fig6, faulted centrace -all)"
INV_DIR=$(mktemp -d /tmp/ci_invariance.XXXXXX)
for w in 1 4; do
  d="$INV_DIR/w$w"; mkdir "$d"
  "$CI_BIN/experiments" -exp fig6 -workers "$w" -trace-out "$d/fig6_trace.json" \
    -metrics-out "$d/fig6_obs.json" > "$d/fig6_stdout.txt"
  journal=()
  [ "$w" = 1 ] && journal=(-journal "$INV_DIR/flap.journal")
  "$CI_BIN/centrace" -all -workers "$w" -loss 0.05 -dup 0.05 -flap us-cli-r:60 "${journal[@]}" \
    -trace-out "$d/centrace_trace.json" -metrics-out "$d/centrace_obs.json" > /dev/null
  jq -c .metrics "$d/fig6_obs.json" > "$d/fig6_metrics.json"
  jq -c .metrics "$d/centrace_obs.json" > "$d/centrace_metrics.json"
done
for f in fig6_stdout.txt fig6_trace.json fig6_metrics.json centrace_trace.json centrace_metrics.json; do
  cmp "$INV_DIR/w1/$f" "$INV_DIR/w4/$f" \
    || { echo "$f differs between -workers 1 and 4"; exit 1; }
done
"$CI_BIN/centrace" -all -workers 1 -loss 0.05 -dup 0.05 -journal "$INV_DIR/noflap.journal" > /dev/null
if cmp -s "$INV_DIR/flap.journal" "$INV_DIR/noflap.journal"; then
  echo "-flap us-cli-r:60 left the campaign journal unchanged"; exit 1
fi
rm -rf "$INV_DIR"
echo "==> worker-count invariance ok"

# Crash matrix: every filesystem operation of the store and journal
# workloads is an injection point, for every fault mode (EIO, ENOSPC,
# torn write, durability-lost rename, power cut), across a widened seed
# range. Zero invariant violations — no acknowledged write lost, no torn
# record surfacing, recovery idempotent — is the gate (DESIGN.md §13).
echo "==> crash matrix (CRASH_MATRIX_SEEDS=${CRASH_MATRIX_SEEDS:-50})"
CRASH_MATRIX_SEEDS="${CRASH_MATRIX_SEEDS:-50}" \
  go test -race -run 'TestCrashMatrix' ./internal/serve ./internal/centrace ./internal/vfs/...

# Short fuzz smoke: a few seconds per parser target, enough to catch
# regressions in the grammar/codec round-trips without holding CI hostage.
# The record codecs (store record, journal entry, cluster completion) get
# their own round-trip targets next to the replay targets.
FUZZTIME="${FUZZTIME:-5s}"
echo "==> fuzz smoke (${FUZZTIME} per target)"
go test -run=^$ -fuzz=FuzzParse -fuzztime="$FUZZTIME" ./internal/httpgram
go test -run=^$ -fuzz=FuzzParse -fuzztime="$FUZZTIME" ./internal/tlsgram
go test -run=^$ -fuzz=FuzzParse -fuzztime="$FUZZTIME" ./internal/dnsgram
go test -run=^$ -fuzz=FuzzDecodePacket -fuzztime="$FUZZTIME" ./internal/netem
go test -run=^$ -fuzz=FuzzFrameReader -fuzztime="$FUZZTIME" ./internal/wire
go test -run=^$ -fuzz=FuzzCompletionRoundTrip -fuzztime="$FUZZTIME" ./internal/wire
go test -run=^$ -fuzz=FuzzJournalReplay -fuzztime="$FUZZTIME" ./internal/centrace
go test -run=^$ -fuzz=FuzzJournalEntryRoundTrip -fuzztime="$FUZZTIME" ./internal/centrace
go test -run=^$ -fuzz=FuzzStoreReplay -fuzztime="$FUZZTIME" ./internal/serve
go test -run=^$ -fuzz=FuzzStoreRecordRoundTrip -fuzztime="$FUZZTIME" ./internal/serve
go test -run=^$ -fuzz=FuzzPromEscape -fuzztime="$FUZZTIME" ./internal/obs

echo "==> ci.sh: all green"
