#!/bin/sh
# Repo gate: formatting, vet, build, race-test the concurrency-bearing
# packages, then the full test suite (including the simcheck-tagged loop
# guard). Run from the repo root: ./scripts/ci.sh
set -eux

# Formatting gate: gofmt -l prints offending files; fail if any.
test -z "$(gofmt -l . | tee /dev/stderr)"

# Repo-hygiene gate: no committed file may exceed 1 MB. (A stray
# compiled wgtt.test once weighed in at 5.7 MB; .gitignore now blocks
# *.test, this catches everything else before it lands.)
git ls-files | while IFS= read -r f; do
    size=$(wc -c < "$f")
    if [ "$size" -gt 1048576 ]; then
        echo "repo-hygiene gate: $f is $size bytes (> 1 MB); do not commit build artifacts"
        exit 1
    fi
done

go vet ./...
go build ./...

# The runner and the sim loop carry the concurrency invariants, the
# deploy package's trunks cross segment event-loop boundaries, and the
# federation package's directory/relocate RPCs ride those trunks; shake
# all four under the race detector first. The TestDomain* parity tests
# then exercise full corridor rides (including fault-injected and
# workload-bearing ones) in domain mode.
go test -race ./internal/runner/ ./internal/sim/ ./internal/deploy/ ./internal/federation/
go test -race -run 'TestDomain' ./internal/core/
go test -race -run 'TestDomain' .

# The wire transport carries the cross-process exchange protocol
# (reconnect, resend, dedup, journal replay); it runs goroutine-heavy,
# so the whole package goes under the race detector.
go test -race ./internal/wire/

# Flight-recorder/stitching gate: the trace package (ring recorder,
# stitch, Chrome export) races against nothing by design — prove it —
# and the recorder-on parity + cross-process stitching tests shake the
# trace-register propagation through the domain executor under the
# race detector.
go test -race ./internal/trace/
go test -race -run 'TestFlightRecorderOffOnParity|TestMultiProcessStitchedTimeline' .

# The mmWave corridor and the cross-domain boundary-interference
# exchange both ride the domain executor; shake one seed of
# each under the race detector (the remaining seeds run race-free in
# the full suite below).
go test -race -run 'TestCorridorMMWave/seed1|TestBoundaryInterferenceParity/seed1' .

# Scenario gate, part 1: the declarative scenario layer (parse →
# validate → compile → generate) under the race detector, plus the
# compiled-scenario integration tests (corridor golden parity,
# generated-network golden sweeps) which drive the domain executor.
go test -race ./internal/scenario/
go test -race -run 'TestScenario|TestGeneratedScenarioParity|TestServeScenarioFile' .

# Scenario gate, part 2: replay the checked-in fuzz corpus (every
# example scenario plus the structural edge cases) without -fuzz — a
# cheap smoke that no corpus input panics the parse/validate/compile
# front end.
go test -run 'FuzzScenario' ./internal/scenario/

# Loop owner-guard diagnostics only compile under the simcheck tag.
go test -tags simcheck ./internal/sim/

# Audibility-gate invariant: under simcheck the medium re-evaluates by
# brute force every delivery, carrier-sense and capture probe its
# per-PPDU audibility bitmap skipped, and panics if one would have
# crossed its threshold.
go test -tags simcheck -short ./internal/mac ./internal/core

go test ./...

# Scenario digest-determinism gate: compiling the same scenario twice —
# a generated network and the corridor example, by path and by its
# embedded bare name — must print the same content digest both times.
# Nondeterminism here would silently break the golden pins and the
# parity sweeps above.
for spec in '-gen-scenario 7:small' '-scenario examples/scenarios/corridor.yaml' '-scenario corridor'; do
    d1=$(go run ./cmd/wgtt-sim $spec -scenario-digest)
    d2=$(go run ./cmd/wgtt-sim $spec -scenario-digest)
    if [ "$d1" != "$d2" ]; then
        echo "scenario digest gate: nondeterministic compile for $spec: $d1 vs $d2"
        exit 1
    fi
    echo "scenario digest gate: $spec -> $d1"
done
# The embedded copy the bare name resolves to must be the checked-in
# file: different digests mean the two drifted.
d_file=$(go run ./cmd/wgtt-sim -scenario examples/scenarios/corridor.yaml -scenario-digest)
d_name=$(go run ./cmd/wgtt-sim -scenario corridor -scenario-digest)
if [ "$d_file" != "$d_name" ]; then
    echo "scenario digest gate: embedded corridor ($d_name) drifted from examples/scenarios/corridor.yaml ($d_file)"
    exit 1
fi

# Distributed-runtime gate: the corridor sharded across two wgtt-serve
# processes over unix sockets must merge — figures and telemetry — to
# the bit-exact in-process serial run at seeds 1–3, and a
# checkpoint/restore mid-run must reproduce the uninterrupted reports
# byte for byte. The in-test runner side goes under the race detector
# (the subprocesses themselves are plain builds).
go test -race -run 'TestMultiProcessParity|TestServeCheckpointRestore' .

# Federation fault gate: a four-segment federated corridor with a canned
# trunk fault schedule (mid-run outage + random drops + jitter) must end
# with zero unowned clients and at least one completed re-locate in the
# metrics snapshot.
go run ./cmd/wgtt-sim -segments 4x7.5,4x7.5,4x7.5,4x7.5 -federation -clients 2 -mph 25 \
    -trunk-faults 'drop=0.02,jitter=40us,outage=1-2@2s-3.5s' -metrics | awk '
    /^server\/clients_unowned/ { seen_unowned = 1; unowned = $2+0 }
    /^server\/relocates/       { relocates = $2+0 }
    END {
        if (!seen_unowned) { print "federation gate: clients_unowned missing from metrics"; exit 1 }
        printf "federation gate: unowned=%d relocates=%d\n", unowned, relocates
        if (unowned != 0) { print "federation gate: clients lost under trunk faults"; exit 1 }
        if (relocates < 1) { print "federation gate: no re-locates observed"; exit 1 }
    }'

# Flight-recorder text-dump gate: a two-segment ride in segment
# domains with the recorder on must print its stitched records, with at
# least one switch issue and one ack among them.
go run ./cmd/wgtt-sim -segments 4x7.5,4x7.5 -parallel-segments -mph 25 -flight-recorder 512 | awk '
    $4 == "issue" { issues++ }
    $4 == "ack"   { acks++ }
    END {
        printf "flight-recorder dump gate: issue=%d ack=%d\n", issues, acks
        if (issues < 1 || acks < 1) { print "flight-recorder dump gate: no switch round in the text dump"; exit 1 }
    }'

# Overhead gates: on the 24-segment corridor ride, the full telemetry
# registry (counters, spans, per-domain 100 ms samplers) must not cost
# more than 5% over the uninstrumented ride (telemetry gate), and the
# flight recorder live in every domain no more than 5% over the
# instrumented ride (flight-recorder gate). BenchmarkCorridorOverhead
# rides the three variants interleaved, seed by seed, and compares
# process CPU time, not wall time, so neither a drifting host load nor
# time spent waiting for a core leans on one side; each gate reads the
# median per-seed ratio over 15 seeds. GOMAXPROCS=1 keeps idle-core
# GC mark workers, which burn CPU in proportion to how long a cycle
# happens to last, out of the reading.
bench_out=$(mktemp)
go test -run=NONE -bench '^BenchmarkCorridorOverhead$' -benchtime=15x -cpu 1 -count=1 . | tee "$bench_out"
awk '
    function metric(unit,   i) { for (i = 3; i < NF; i++) if ($(i+1) == unit) return $i + 0; return 0 }
    $1 ~ /^BenchmarkCorridorOverhead(-[0-9]+)?$/ { tel = metric("metrics/base"); rec = metric("rec/metrics") }
    END {
        if (tel == 0 || rec == 0) { print "overhead gates: benchmark output missing"; exit 1 }
        printf "telemetry overhead: cpu ratio=%.3f\n", tel
        printf "flight-recorder overhead: cpu ratio=%.3f\n", rec
        fail = 0
        if (tel > 1.05) { print "telemetry overhead exceeds 5% budget"; fail = 1 }
        if (rec > 1.05) { print "flight-recorder overhead exceeds 5% budget"; fail = 1 }
        exit fail
    }' "$bench_out"
rm -f "$bench_out"

# Datapath allocation gate: the drive-by and 24-segment corridor
# benchmarks must stay within 10% of the allocs/op and bytes/op budgets
# pinned in BENCH_baseline.json, and the coordinator round loop and a
# disabled telemetry counter within their zero budgets (0 allocs/op,
# 0 B/op: any allocation fails). Regenerate the baseline (see README)
# when a change legitimately moves a budget.
{
    go test -run=NONE -bench '^BenchmarkMeanPerClientMbps$|^BenchmarkCorridorParallel$' \
        -benchtime=3x -benchmem .
    go test -run=NONE -bench '^BenchmarkCoordinatorRound$' -benchmem ./internal/sim/
    go test -run=NONE -bench '^BenchmarkCounterIncDisabled$' -benchmem ./internal/telemetry/
} | go run ./cmd/wgtt-benchjson -gate BENCH_baseline.json

# Scale-grid gate: re-ride the small cells of the city-scale grid and
# hold them to the checked-in BENCH_scale.json — per-flow Mbps is
# seed-deterministic and must match exactly; allocation counts get 30%
# slack. The full grid (24 segments x 1024 clients) is regenerated
# manually: go run ./cmd/wgtt-benchjson -scale > BENCH_scale.json
go run ./cmd/wgtt-benchjson -scale -compare BENCH_scale.json -segments 1,8 -clients 2,64

# mmWave golden gate: the 60 GHz picocell corridor must render
# bit-identically run-to-run (the blockage schedule is seed-derived and
# precomputed, so there is no excuse for drift) and its switch-time
# distribution must sit in the paper's 17–21 ms stop/start/ack band
# (±quantile-interpolation margin; see TestCorridorMMWave).
mm_out=$(mktemp)
go run ./cmd/wgtt-experiments -run corridor-mmwave | tee "$mm_out"
go run ./cmd/wgtt-experiments -run corridor-mmwave | diff "$mm_out" -
awk '
    /^handoffs:/ {
        seen = 1; handoffs = $2+0; p50 = $8+0; p90 = $11+0
        printf "mmwave gate: handoffs=%d p50=%.1fms p90=%.1fms\n", handoffs, p50, p90
        if (handoffs < 40) { print "mmwave gate: picocell switching stalled"; exit 1 }
        if (p50 < 14 || p50 > 25) { print "mmwave gate: switch-time p50 left the 17-21 ms band"; exit 1 }
        if (p90 > 40) { print "mmwave gate: switch-time p90 blew the ioctl jitter budget"; exit 1 }
    }
    END { if (!seen) { print "mmwave gate: handoff summary line missing"; exit 1 } }' "$mm_out"
rm -f "$mm_out"
