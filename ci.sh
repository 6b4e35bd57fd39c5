#!/usr/bin/env bash
# ci.sh — the repo's verification gate. Run before every merge:
#
#   ./ci.sh                      # vet + build + doc health + race tests (both
#                                # backends) + fuzz smoke + chaos + serve
#                                # smoke-run + perf gate
#   ./ci.sh --quick              # skip the race detector (slow on 1-CPU boxes)
#   ./ci.sh --update-baseline    # additionally refresh BENCH_baseline.json
#                                # after a passing gate (combinable with --quick)
#
# The test suite runs twice: once on the default GEMM backend (AVX2
# on capable amd64 hardware) and once with STEPPINGNET_NOSIMD=1
# forcing the scalar fallback, so the path non-AVX2 machines depend
# on cannot silently rot. A purego-tagged build additionally proves
# the no-assembly configuration still compiles.
#
# The perf step regenerates the benchmark numbers into a temp file
# and diffs them against the committed BENCH_baseline.json via
# `stepbench -compare`, which fails hard on allocs/op growth on any
# zero-alloc path and on ns/op regressions beyond the ±15% noise
# threshold (ns/op is not gated when the committed baseline came from
# a different GEMM backend than this machine selects). The committed
# baseline is only replaced under --update-baseline — and never
# cross-backend — so sub-threshold regressions cannot ratchet
# silently and a scalar box cannot clobber the avx2 reference; when a
# PR intentionally moves the numbers, refresh and commit the file so
# `git diff BENCH_baseline.json` shows the movement in review.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
UPDATE_ARGS=()
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    --update-baseline) UPDATE_ARGS=(-update) ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== doc health =="
# gofmt cleanliness repo-wide, an explicit vet of the serving packages
# (also covered by ./... above, but kept here so the doc-health step
# is self-contained), and the doc-comment gate: every exported
# identifier in internal/serve must carry a doc comment (enforced by
# an AST-walking test).
UNFORMATTED=$(gofmt -l .)
if [[ -n "$UNFORMATTED" ]]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
go vet ./internal/serve ./cmd/stepserve
go test -count=1 -run TestExportedIdentifiersDocumented ./internal/serve

echo "== go build (purego fallback) =="
go build -tags purego ./...

echo "== perfbench module =="
# perfbench/ is a nested module (it reaches the repo through a replace
# directive), so the root ./... above skips it. Vet and test it here so
# an API change that breaks the benchmark fails the gate.
(cd perfbench && GOWORK=off go vet . && GOWORK=off go test -count=1 .)

# One pass per backend; the scalar pass additionally runs with
# -shuffle=on so test-order dependencies (leaked GOMAXPROCS tweaks,
# stale package-level thresholds, order-sensitive goroutine counts)
# surface in-repo instead of flaking on someone else's machine.
if [[ "$QUICK" == 1 ]]; then
    echo "== go test (no race) =="
    go test ./...
    echo "== go test, scalar backend, shuffled (no race) =="
    STEPPINGNET_NOSIMD=1 go test -count=1 -shuffle=on ./...
else
    echo "== go test -race =="
    go test -race ./...
    echo "== go test -race, scalar backend, shuffled =="
    STEPPINGNET_NOSIMD=1 go test -race -count=1 -shuffle=on ./...
fi

echo "== sharding equivalence (both backends) =="
# The cross-worker-count bitwise gate, run explicitly on both GEMM
# backends: the arena's row splits, the sharded im2col gather and the
# engine's batch-parallel image sharding must produce bit-identical
# outputs at every worker count regardless of which kernels dispatch
# selects.
SHARD_TESTS='TestRowShardBitwiseInvariance|TestParallelIm2ColMatchesSerial|TestBatchParallelMatchesSerial'
go test -count=1 -run "$SHARD_TESTS" ./internal/tensor ./internal/infer
STEPPINGNET_NOSIMD=1 go test -count=1 -run "$SHARD_TESTS" ./internal/tensor ./internal/infer

echo "== resume equivalence (both backends) =="
# The semantic cache's bitwise contract: a walk resumed from exported
# ladder state must equal a cold walk exactly — at the engine layer
# (property grid over odd shapes × worker counts), at the serving
# layer (deadline-stopped walk resumed by a later request), and the
# early exit must never change the predicted class.
RESUME_TESTS='TestResumeMatchesColdWalk|TestExportRowFromBatchedWalk|TestCachedResumeBitwiseEqualsCold|TestCacheHitServesStoredLogits|TestEarlyExitNeverChangesArgmax'
go test -count=1 -run "$RESUME_TESTS" ./internal/infer ./internal/serve
STEPPINGNET_NOSIMD=1 go test -count=1 -run "$RESUME_TESTS" ./internal/infer ./internal/serve

echo "== fuzz smoke =="
# Ten seconds per fuzz target on top of the committed seed corpora:
# enough to shake out regressions in the hardened surfaces (the
# LatencyModel deadline math, the /infer handler chain and the
# semantic cache's key/churn/resume paths) without stalling the gate.
# A real campaign runs them longer by hand.
go test -run='^$' -fuzz=FuzzLatencyModel -fuzztime=10s ./internal/governor
go test -run='^$' -fuzz=FuzzInferHandler -fuzztime=10s ./cmd/stepserve
go test -run='^$' -fuzz=FuzzCacheResume -fuzztime=10s ./internal/serve/cache

echo "== chaos (default backend) =="
# The serving layer's randomized lifecycle storm always runs under the
# race detector (even with --quick) and under both GEMM backends:
# close/submit races are exactly where the backends' differing step
# timings shake out different interleavings. The cache-staleness storm
# rides along: concurrent TTL expiry, calibration-swap invalidation
# and speculative pre-climbs against a live submit stream.
go test -race -count=1 -run 'TestChaosRandomizedLifecycles|TestChaosCacheStaleness' ./internal/serve
echo "== chaos (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run 'TestChaosRandomizedLifecycles|TestChaosCacheStaleness' ./internal/serve

echo "== overload governor (default backend) =="
# The SLO-driven brownout loop always runs under the race detector on
# both GEMM backends: the deterministic controller unit tests, the
# serve-side drift scenario (calibration inflates 3× mid-run and the
# controller re-converges), the policy-swap/stats property test and
# the control-loop shutdown leak check.
GOV_TESTS='TestControl|TestPolicySwap'
go test -race -count=1 ./internal/governor
go test -race -count=1 -run "$GOV_TESTS" ./internal/serve
echo "== overload governor (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 ./internal/governor
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run "$GOV_TESTS" ./internal/serve

echo "== cluster chaos (default backend) =="
# The distributed tier's fault storms always run under the race
# detector and under both GEMM backends: replica death, seeded random
# faults and router failover are exactly where backend-dependent step
# timings shake out different interleavings.
go test -race -count=1 -run 'TestClusterChaosKillOneReplica|TestExactlyOneAnswerUnderRandomFaults' ./internal/cluster
echo "== cluster chaos (scalar backend) =="
STEPPINGNET_NOSIMD=1 go test -race -count=1 -run 'TestClusterChaosKillOneReplica|TestExactlyOneAnswerUnderRandomFaults' ./internal/cluster

echo "== router e2e smoke =="
# Stand up three real replica processes (each with a TTL'd semantic
# cache and idle-window speculation armed) and an affinity-routing,
# cache-warming router over them, then drive three loadgen phases: a
# mixed multi-target spray (router plus one replica directly, with a
# couple of slow-loris connections against the router), a repeat-heavy
# phase whose hot keys must concentrate on the replicas their cache
# key hashes to — asserted from the loadgen's router view (affinity
# routed > 0, cluster-wide cache hits > 0) — and an overload phase
# whose generous deadlines let queues build on the hot HRW winners
# until the bounded-load spill engages and the router warms the
# spilled keys' entries onto the replicas that caught them (asserted
# via the router view's warming summary). Everything shuts down with
# SIGTERM so the graceful-drain path executes. The subshell keeps the
# process cleanup trap local.
(
    E2E_TMP=$(mktemp -d)
    trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$E2E_TMP"' EXIT
    go build -o "$E2E_TMP/stepserve" ./cmd/stepserve
    REPLICA_FLAGS='-workers 1 -queue 16 -batch 4 -refresh 0 -cache 64 -cache-ttl 1m -speculate'
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18081 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18082 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18083 $REPLICA_FLAGS &
    "$E2E_TMP/stepserve" -addr 127.0.0.1:18080 \
        -route http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083 -affinity -warm &
    # The load generator waits for a healthy target itself, so no sleep
    # is needed between replica startup and the drive.
    "$E2E_TMP/stepserve" -loadgen -targets http://127.0.0.1:18080,http://127.0.0.1:18081 \
        -rps 150 -duration 2s -deadlines 5ms:0.8,50ms:0.2:hi -slow 2
    # Phase 2: repeat-heavy traffic through the router alone. The
    # report's affinity summary line is the assertion surface.
    "$E2E_TMP/stepserve" -loadgen -targets http://127.0.0.1:18080 \
        -rps 200 -duration 2s -deadlines 20ms:1 -repeat 0.6 | tee "$E2E_TMP/affinity.out"
    grep -E 'affinity: [1-9][0-9]* routed to HRW choice' "$E2E_TMP/affinity.out" >/dev/null ||
        { echo "router e2e: no affinity-routed requests reported" >&2; exit 1; }
    grep -E '[1-9][0-9]* cache hits\+resumes cluster-wide' "$E2E_TMP/affinity.out" >/dev/null ||
        { echo "router e2e: repeat traffic produced no replica cache reuse" >&2; exit 1; }
    # Phase 3: sustained overload with generous deadlines — walks climb
    # the full ladder, queues build unevenly on the hot keys' HRW
    # winners, the spill demotes them and the warming loop transfers
    # the spilled entries to the replicas that caught them.
    "$E2E_TMP/stepserve" -loadgen -targets http://127.0.0.1:18080 \
        -rps 400 -duration 3s -deadlines 500ms:1 -repeat 0.8 | tee "$E2E_TMP/warming.out"
    grep -E 'warming: [1-9][0-9]* entries transferred' "$E2E_TMP/warming.out" >/dev/null ||
        { echo "router e2e: overload produced no cross-replica cache warming" >&2; exit 1; }
    kill -TERM $(jobs -p)
    wait
)

echo "== serve smoke-run (default backend) =="
# Drive the anytime serving layer briefly through the load generator
# with the burst scenario and an armed overload governor: calibration,
# admission, deadline scheduling, micro-batching, brownout control and
# graceful drain all execute, and the report exercises the SLO
# attainment columns. Run under both GEMM backends, like the test
# suite.
SMOKE_FLAGS='-loadgen -rps 300 -duration 1s -workers 1 -queue 16 -batch 4 -refresh 250ms
             -deadlines 500us:0.45,10ms:0.45,10ms:0.1:hi -scenario burst -slo 1:5ms:0.9 -control 20ms
             -cache 256 -exit-calibrate 32 -repeat 0.5'
go run ./cmd/stepserve $SMOKE_FLAGS
echo "== serve smoke-run (scalar backend) =="
STEPPINGNET_NOSIMD=1 go run ./cmd/stepserve $SMOKE_FLAGS

echo "== perf baseline =="
trap 'rm -f BENCH_new.json' EXIT # the gate's scratch file, never committed
go run ./cmd/stepbench -bench BENCH_new.json
# -strict: a NEW zero-alloc benchmark missing from the committed
# baseline fails the gate, so added zero-alloc paths must enter the
# baseline (and its alloc protection) in the same PR that adds them.
go run ./cmd/stepbench -compare -strict ${UPDATE_ARGS[@]+"${UPDATE_ARGS[@]}"} BENCH_baseline.json BENCH_new.json
