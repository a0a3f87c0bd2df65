#!/bin/sh
# Tier-1 verification: everything a change must keep green before merging.
#   ./ci.sh         gofmt + build + vet + tests (shuffled) + smoke + results + race
#   ./ci.sh quick   build + tests only (what the roadmap calls tier-1)
#   ./ci.sh full    everything, plus the event-queue fuzz and the expensive results tables
set -eu
cd "$(dirname "$0")"

mode="${1:-}"

if [ "$mode" != "quick" ]; then
    echo "== gofmt"
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:"
        echo "$unformatted"
        exit 1
    fi
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

if [ "$mode" = "quick" ]; then
    echo "tier-1 OK"
    exit 0
fi

echo "== go vet ./..."
go vet ./...

echo "== benchmark module tests"
# benchmark/ is its own Go module, so ./... above does not reach it. Its
# TestSetupMirrorMatchesScenarioRun catches the set-up mirror drifting
# from scenario.Run, including each segment's size.
(cd benchmark && go test ./...)

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== mproxy build + smoke matrix"
go build -o "$tmpdir/mproxy" ./cmd/mproxy
"$tmpdir/mproxy" list >/dev/null
"$tmpdir/mproxy" run section4-model >/dev/null 2>"$tmpdir/manifest"
grep -q '"output_sha256"' "$tmpdir/manifest"
for target in table3 loss-sweep prof-breakdown cmd/mproxy/testdata/specs/apps-list.json; do
    "$tmpdir/mproxy" run "$target" >/dev/null 2>/dev/null
done

echo "== prof-kind chrome golden"
printf '{"kind":"prof","archs":["MP1"],"ops":["PUT"],"out":{"breakdown":false,"chrome":"%s/chrome.json"}}\n' \
    "$tmpdir" >"$tmpdir/prof-chrome.json"
"$tmpdir/mproxy" run "$tmpdir/prof-chrome.json" >/dev/null 2>/dev/null
if ! cmp -s "$tmpdir/chrome.json" internal/prof/testdata/pingpong-mp1-chrome.json; then
    echo "prof-kind Chrome trace deviates from internal/prof/testdata/pingpong-mp1-chrome.json"
    echo "re-bless with: go test ./internal/prof -run TestChromeDeterminism -update"
    exit 1
fi

echo "== bench shard (schema + regression gate vs BENCH_17.json)"
# 15% tolerance plus one retry: the shared runners' noise is one-sided
# (load spikes only ever slow a rep down) and an occasional spike exceeds
# any tolerance a real regression should be allowed to hide in. A genuine
# regression trips both attempts; a spike almost never hits twice.
# Simulated events per op are deterministic and gated exactly: any change
# fails both attempts.
bench_ok=0
for attempt in 1 2; do
    if "$tmpdir/mproxy" bench -quick -out "$tmpdir/bench.json" \
        -baseline BENCH_17.json -tolerance 0.15 2>"$tmpdir/bench.log"; then
        bench_ok=1
        break
    fi
    echo "bench attempt $attempt tripped the gate:"
    cat "$tmpdir/bench.log"
done
[ "$bench_ok" = 1 ] || exit 1
# The per-benchmark comparison table goes to the log on every run, not
# just on a regression failure.
cat "$tmpdir/bench.log"
grep -q '"schema": "mproxy-bench/v1"' "$tmpdir/bench.json"

echo "== parallel speedup gate (engine-par-events, 8 shards)"
# The bench suite's engine-par-events row prints the sequential-twin
# wall-clock ratio. The >=3x assertion only means something when the
# host can actually run 8 shards side by side; on smaller machines the
# ratio is still logged (and the row's own throughput is still gated
# against the baseline above), but the absolute threshold is skipped.
speedup=$(sed -n 's/^par-speedup: \([0-9.]*\)x.*/\1/p' "$tmpdir/bench.log" | head -1)
if [ -z "$speedup" ]; then
    echo "bench log carries no par-speedup line"
    exit 1
fi
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 8 ]; then
    if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }'; then
        echo "parallel speedup ${speedup}x < 3.0x at 8 shards on $cores cores"
        exit 1
    fi
    echo "parallel speedup ${speedup}x on $cores cores (>= 3.0x required)"
else
    echo "parallel speedup ${speedup}x on $cores cores (threshold needs >= 8, skipped)"
fi

echo "== forensics shard (flight-recorder byte-identity)"
# The serving-forensics bench row above bounds the recorder's overhead
# (its BENCH_9.json baseline sits a few percent over recorder-off
# serving-smoke);
# this shard pins its *output*: the slowest-requests table, the windowed
# series JSON, and the Chrome exemplars must reproduce byte-identically.
mkdir "$tmpdir/forensics"
"$tmpdir/mproxy" run -forensics "$tmpdir/forensics" serving-smoke-forensics >/dev/null 2>/dev/null
for f in serving_smoke_forensics.slowest.txt \
         serving_smoke_forensics.flight.json \
         serving_smoke_forensics.chrome.json
do
    if ! cmp -s "$tmpdir/forensics/$f" "results/forensics/$f"; then
        echo "mproxy run serving-smoke-forensics no longer reproduces results/forensics/$f byte-identically"
        echo "re-bless with: go test ./cmd/mproxy -run TestForensicsByteIdentity -update"
        exit 1
    fi
done

echo "== race shard (reference digests + parallel determinism + concurrent fabrics)"
# TestDifferential* holds every preset and multi-proxy serving case to
# the recorded reference digests (testdata/preset_digests.json, at the
# -race test scale here) and sharded runs to sequential ones;
# TestPresetDigests keeps the digest file in step with the cases;
# TestParallel* adds the parallel executor's repeat-run determinism and
# warn-and-fall-back contract. Under -race the detector watches every
# cross-shard mailbox and barrier edge, and, in
# TestDifferentialFigure8SharedReferences (Figure 8 at jobs: 2 against
# jobs: 1), the serial references concurrent cells share. The memory
# and CRL packages run whole: each Figure 8 cell creates CRL copies on
# first use and releases its pages while the other worker's cell runs.
# So do the packages whose hot-path frames recycle through per-engine
# pools (machine, am, kv), and comm's pool tests: a sharded run's packets
# are taken from the sending shard's pool and return into the receiving
# shard's, so every pool must stay private to its engine.
go test -race -run 'TestDifferential|TestPresetDigests|TestStealRepeatRunDigest|TestParallel|TestConcurrentFabricsDistinctQueueCaps|TestFabricPoolsPerEngine|TestPacketCrossesEngines' \
    ./internal/scenario/ ./internal/comm/ ./internal/workload/openloop/
go test -race ./internal/sim/par/ ./internal/memory/ ./internal/crl/ \
    ./internal/machine/ ./internal/am/ ./internal/kv/

echo "== results byte-identity (cheap presets)"
for preset_file in \
    "section4-model section4_model.txt" \
    "table3 table3.txt" \
    "table4 table4.txt" \
    "figure7 figure7.txt" \
    "serving-smoke serving_smoke.txt" \
    "serving-proxysweep-smoke serving_proxysweep_smoke.txt"
do
    set -- $preset_file
    "$tmpdir/mproxy" run "$1" 2>/dev/null >"$tmpdir/out.txt"
    if ! cmp -s "$tmpdir/out.txt" "results/$2"; then
        echo "mproxy run $1 no longer reproduces results/$2 byte-identically"
        exit 1
    fi
done

if [ "$mode" = "full" ]; then
    echo "== event-queue fuzz"
    # FuzzEventHeap checks every pop of the radix event queue against a
    # brute-force (at, seq) model; its seed corpus runs in go test above.
    go test -run '^$' -fuzz FuzzEventHeap -fuzztime 10s ./internal/sim

    echo "== results byte-identity (expensive presets)"
    for preset_file in \
        "figure8 figure8.txt" \
        "table6 table6.txt" \
        "figure9 figure9.txt" \
        "figure9-2proxies figure9_2proxies.txt" \
        "section54-queueing section54_queueing.txt" \
        "serving-fattree-1k serving.txt" \
        "serving-dragonfly-1k serving_dragonfly.txt" \
        "serving-proxysweep serving_proxysweep.txt"
    do
        set -- $preset_file
        "$tmpdir/mproxy" run "$1" 2>/dev/null >"$tmpdir/out.txt"
        if ! cmp -s "$tmpdir/out.txt" "results/$2"; then
            echo "mproxy run $1 no longer reproduces results/$2 byte-identically"
            exit 1
        fi
    done
fi

echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "== go test -race ./..."
go test -race ./...

echo "CI OK"
