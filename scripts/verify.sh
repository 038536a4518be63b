#!/bin/sh
# Tier-1 verification: build, vet, tests, race detector, plus a one-shot
# smoke run of the benchmark suite and the streaming-pipeline benches.
# Run from the repository root.
#
#   scripts/verify.sh          # full tier-1
#   BENCH_JSON=BENCH_pr2.json scripts/verify.sh   # also regenerate timings
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...
go test -run xxx -bench . -benchtime 1x .

# Capture analysis: smoke the synthetic capture generator and the
# capture-scan benchmarks (baseline vs zero-copy batch path).
go test -run xxx -bench 'BenchmarkForensicsScan|BenchmarkSynthesize' -benchtime 1x .

if [ -n "${BENCH_JSON:-}" ]; then
    go run ./cmd/benchtables -benchjson "$BENCH_JSON"
    go run ./cmd/benchtables -checkjson "$BENCH_JSON"
fi

# Live detection daemon: self-contained end-to-end smoke (ephemeral
# sockets, live JSONL events verified against the batch analyzer on
# several concurrent streams, /metrics + /healthz probed; since PR 5
# the smoke also asserts the ingest/detect latency histograms and stage
# timers are populated and that the opt-in /debug/pprof mux answers;
# since PR 7 it asserts per-shard metric rows sum to the aggregates and
# every stream keeps live-vs-batch parity). Run once with the default
# shard count and once with -shards 1, the single-writer layout that
# reproduces the pre-shard fan-in.
go run ./cmd/blapd -smoke
go run ./cmd/blapd -smoke -shards 1

# Observability smoke: hcidump -stats must report throughput and
# capture-time finding latency without disturbing the exit-3 contract,
# and a repeated btsim campaign must run with live progress.
obs_dir=$(mktemp -d)
go run ./cmd/btsim -scenario extraction -seed 7 -o "$obs_dir"
go build -o "$obs_dir/hcidump" ./cmd/hcidump
rc=0
"$obs_dir/hcidump" -analyze -stats "$obs_dir/extraction_C.btsnoop" >/dev/null 2>"$obs_dir/stats.err" || rc=$?
[ "$rc" -eq 3 ]
grep -q '^stats: .*records/s' "$obs_dir/stats.err"
go run ./cmd/btsim -scenario extraction -repeat 20 -workers 4 -seed 7 > "$obs_dir/repeat.out" 2>/dev/null
grep -q 'succeeded' "$obs_dir/repeat.out"
rm -rf "$obs_dir"

# Related-attack library smoke (PR 10): an unknown scenario must list the
# registry and exit 2; a library scenario must run, write its victim-side
# capture, and flag its detector rule; the mitigation campaign must hold
# the attack at zero.
atk_dir=$(mktemp -d)
go build -o "$atk_dir/btsim" ./cmd/btsim
go build -o "$atk_dir/hcidump" ./cmd/hcidump
rc=0
"$atk_dir/btsim" -scenario no-such-attack 2> "$atk_dir/unknown.err" || rc=$?
[ "$rc" -eq 2 ]
grep -q 'valid: .*stealtooth.*passkey-guard' "$atk_dir/unknown.err"
"$atk_dir/btsim" -scenario stealtooth -seed 7 -o "$atk_dir" | grep -q 're-paired=true'
rc=0
"$atk_dir/hcidump" -analyze "$atk_dir/stealtooth_C.btsnoop" > "$atk_dir/stealtooth.rep" || rc=$?
[ "$rc" -eq 3 ]
grep -q 'silent-repairing' "$atk_dir/stealtooth.rep"
"$atk_dir/btsim" -scenario passkey-guard -repeat 10 -seed 7 2>/dev/null | grep -q '0/10 succeeded'
go run ./cmd/benchtables -attacks -trials 5 > "$atk_dir/matrix.out"
grep -q 'Cross-attack matrix' "$atk_dir/matrix.out"
for atk in stealtooth happy-mitm blurtooth oob-mitm passkey-sniff passkey-guard; do
    grep -q "$atk" "$atk_dir/matrix.out"
done
rm -rf "$atk_dir"

# Chaos smoke: the same seed and fault plan must reproduce the capture
# byte for byte, and blapd must still flag the degraded-channel attack
# (exit 3 == findings present).
chaos_dir=$(mktemp -d)
trap 'rm -rf "$chaos_dir"' EXIT
go run ./cmd/btsim -scenario flaky-extraction -seed 7 -o "$chaos_dir/a"
go run ./cmd/btsim -scenario flaky-extraction -seed 7 -o "$chaos_dir/b"
cmp "$chaos_dir/a/flaky-extraction_C.btsnoop" "$chaos_dir/b/flaky-extraction_C.btsnoop"
cmp "$chaos_dir/a/flaky-extraction_A.btsnoop" "$chaos_dir/b/flaky-extraction_A.btsnoop"
# go run swallows the child's exit code (it reports 1 and prints
# "exit status 3"), so the exit-3 contract needs the built binary.
go build -o "$chaos_dir/blapd" ./cmd/blapd
rc=0
"$chaos_dir/blapd" -stdin < "$chaos_dir/a/flaky-extraction_C.btsnoop" || rc=$?
[ "$rc" -eq 3 ]

# Batch-pipeline smoke: a 1M-record synthetic capture fed through the
# one-shot blapd batch path twice must produce byte-identical finding
# lines (no wall-clock leakage, deterministic batch boundaries) and the
# exit-3 contract, and hcidump -analyze must agree on the same capture.
batch_dir=$(mktemp -d)
go run ./cmd/benchtables -synth "$batch_dir/batch.btsnoop" -synthrecords 1000000 -seed 9
go build -o "$batch_dir/blapd" ./cmd/blapd
go build -o "$batch_dir/hcidump" ./cmd/hcidump
rc=0
"$batch_dir/blapd" -stdin < "$batch_dir/batch.btsnoop" > "$batch_dir/run1.jsonl" || rc=$?
[ "$rc" -eq 3 ]
rc=0
"$batch_dir/blapd" -stdin < "$batch_dir/batch.btsnoop" > "$batch_dir/run2.jsonl" || rc=$?
[ "$rc" -eq 3 ]
grep '"type":"finding"' "$batch_dir/run1.jsonl" > "$batch_dir/f1"
grep '"type":"finding"' "$batch_dir/run2.jsonl" > "$batch_dir/f2"
cmp "$batch_dir/f1" "$batch_dir/f2"
rc=0
"$batch_dir/hcidump" -analyze "$batch_dir/batch.btsnoop" >/dev/null || rc=$?
[ "$rc" -eq 3 ]
rm -rf "$batch_dir"

# Kill-9 resilience smoke (PR 9): stream the 1M-record capture into a
# session-protocol daemon with a store, kill -9 the daemon right after
# its first durable checkpoint marker appears on the JSONL channel,
# restart on the same store (the parked session must be recovered from
# its checkpoint), resume the send with the same session id, and
# require the merged finding lines — timestamps stripped, deduplicated,
# since replay from the last checkpoint legitimately re-emits findings
# already printed before the crash — to byte-match an uninterrupted
# baseline run. The first send must exit 4, the partial-send code.
res_dir=$(mktemp -d)
go run ./cmd/benchtables -synth "$res_dir/cap.btsnoop" -synthrecords 1000000 -seed 9
go build -o "$res_dir/blapd" ./cmd/blapd
wait_addr() {
    i=0
    while [ "$i" -lt 100 ]; do
        addr=$(sed -n 's/^blapd: listening tcp //p' "$1")
        [ -n "$addr" ] && return 0
        i=$((i+1)); sleep 0.1
    done
    return 1
}
# grep -h (not cat |): a kill -9 can truncate the crashed run's final
# JSONL line mid-write, and cat would glue that unterminated fragment
# onto the next file's first line. Per-file grep keeps the fragment its
# own line and the }$ filter drops it — safe, because every event after
# the last durable checkpoint is re-emitted complete on replay.
strip_findings() {
    grep -h '"type":"finding"' "$@" | grep '}$' | sed 's/,"ts":"[^"]*"//'
}
# The send client exits once its bytes are in the socket; the daemon is
# still draining them. Wait for the clean stream-end event before
# terminating, or the tail of the capture is lost to the abort path.
wait_clean() {
    i=0
    until grep '"type":"stream-end"' "$1" | grep -q '"status":"clean"'; do
        i=$((i+1)); [ "$i" -lt 300 ]; sleep 0.1
    done
}
# Baseline: one uninterrupted session-protocol run.
"$res_dir/blapd" -tcp 127.0.0.1:0 -store "$res_dir/store_base" -resume-grace 5m \
    -checkpoint-every 1048576 -ack-every 65536 \
    > "$res_dir/base.jsonl" 2> "$res_dir/base.err" &
base_pid=$!
wait_addr "$res_dir/base.err"
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr" -session s9
wait_clean "$res_dir/base.jsonl"
kill -TERM "$base_pid"
wait "$base_pid"
strip_findings "$res_dir/base.jsonl" | sort > "$res_dir/base.findings"
test -s "$res_dir/base.findings"
# Crash run: same configuration, killed -9 mid-ingest.
"$res_dir/blapd" -tcp 127.0.0.1:0 -store "$res_dir/store_crash" -resume-grace 5m \
    -checkpoint-every 1048576 -ack-every 65536 \
    > "$res_dir/crash1.jsonl" 2> "$res_dir/crash1.err" &
crash_pid=$!
wait_addr "$res_dir/crash1.err"
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr" -session s9 2> "$res_dir/send1.err" &
send_pid=$!
i=0
until grep -q '"type":"checkpoint"' "$res_dir/crash1.jsonl"; do
    i=$((i+1)); [ "$i" -lt 200 ]; sleep 0.05
done
kill -9 "$crash_pid"
rc=0
wait "$send_pid" || rc=$?
[ "$rc" -eq 4 ]
wait "$crash_pid" || true
# Restart on the same store: the parked session must come back from its
# checkpoint, and the resumed send must pick up at a nonzero offset.
"$res_dir/blapd" -tcp 127.0.0.1:0 -store "$res_dir/store_crash" -resume-grace 5m \
    -checkpoint-every 1048576 -ack-every 65536 \
    > "$res_dir/crash2.jsonl" 2> "$res_dir/crash2.err" &
crash2_pid=$!
wait_addr "$res_dir/crash2.err"
grep -q 'recovered 1 parked session' "$res_dir/crash2.err"
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr" -session s9 2> "$res_dir/send2.err"
grep -q 'resumed from offset [1-9]' "$res_dir/send2.err"
wait_clean "$res_dir/crash2.jsonl"
kill -TERM "$crash2_pid"
wait "$crash2_pid"
strip_findings "$res_dir/crash1.jsonl" "$res_dir/crash2.jsonl" | sort -u > "$res_dir/crash.findings"
cmp "$res_dir/base.findings" "$res_dir/crash.findings"
rm -rf "$res_dir"

# Transport-chaos differential, full sweep over a small capture: cut
# the session at every one of its byte offsets, resume, and require
# findings byte-identical to the uninterrupted baseline. (The larger
# stride-sampled version runs in go test; this exercises the benchtables
# -chaos entry point end to end.)
go run ./cmd/benchtables -chaos -chaosrecords 40

# Store smoke: the embedded tsdb must be deterministic — appending 1M
# findings on a fixed timeline, retention-compacting with a fixed clock,
# and querying back must print identical counts and digests (covering
# every byte in the store directory) across two fresh runs.
tsdb_dir=$(mktemp -d)
go run ./cmd/benchtables -tsdbsmoke "$tsdb_dir/a" > "$tsdb_dir/run1.out"
go run ./cmd/benchtables -tsdbsmoke "$tsdb_dir/b" > "$tsdb_dir/run2.out"
cmp "$tsdb_dir/run1.out" "$tsdb_dir/run2.out"
grep -q 'window=60000' "$tsdb_dir/run1.out"
rm -rf "$tsdb_dir"

# The committed bench JSONs must stay well-formed (the pr4 check also
# enforces the degraded-sweep acceptance criteria).
for bj in BENCH_pr2.json BENCH_pr3.json BENCH_pr4.json BENCH_pr5.json BENCH_pr6.json BENCH_pr7.json BENCH_pr8.json BENCH_pr9.json BENCH_pr10.json; do
    if [ -f "$bj" ]; then
        go run ./cmd/benchtables -checkjson "$bj"
    fi
done

# Observability overhead gate: the instrumented sentinel ingest path
# (BENCH_pr5, with sampled stage timing compiled in) must stay within
# 5% of the pre-instrumentation throughput artifact (BENCH_pr3).
if [ -f BENCH_pr5.json ] && [ -f BENCH_pr3.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr5.json -baseline BENCH_pr3.json
fi

# Batch-pipeline speedup gate: the PR 6 block-scanning ingest must run
# sentinel_ingest_1m and forensics_scan_1m at least 3x faster than the
# PR 5 artifact, with allocations per record no worse. Both JSONs are
# committed, so this check is deterministic.
if [ -f BENCH_pr6.json ] && [ -f BENCH_pr5.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr6.json -baseline BENCH_pr5.json -minspeedup 3
fi

# Sharded-sentinel gate: the PR 7 artifact must keep sentinel_ingest_1m
# within 5% of PR 6, restore the degraded-sweep workers=2 speedup to
# >= 0.95, and — when the artifact was recorded on >= 2 CPUs — show the
# multi-stream aggregate at >= 2x the single-stream throughput.
if [ -f BENCH_pr7.json ] && [ -f BENCH_pr6.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr7.json -baseline BENCH_pr6.json
fi

# Persistence overhead gate: the PR 8 artifact records sentinel_ingest_1m
# with a live tsdb store wired in (every finding and stream end written
# through the bounded persist queues); that throughput must stay within
# 5% of the store-less PR 7 figure — durability rides the cold path.
if [ -f BENCH_pr8.json ] && [ -f BENCH_pr7.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr8.json -baseline BENCH_pr7.json
fi

# Resilience overhead gate: the PR 9 artifact records both sentinel
# ingest figures with the session resume protocol and detector
# checkpointing enabled (chunk framing, offset acks, periodic snapshots
# through the persist queues); both must stay within 5% of the PR 8
# figures — resumability rides the cold path too.
if [ -f BENCH_pr9.json ] && [ -f BENCH_pr8.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr9.json -baseline BENCH_pr8.json -checkmulti
fi

# Cross-attack matrix gate: the PR 10 artifact carries the attack matrix
# (>= 5 attacks with non-zero trials, clean-channel detection == success
# for every ruled attack, mitigation row at zero — enforced inside
# -checkjson) and its detector-rule additions must leave the ingest
# throughput within 5% of the PR 9 figures.
if [ -f BENCH_pr10.json ] && [ -f BENCH_pr9.json ]; then
    go run ./cmd/benchtables -checkjson BENCH_pr10.json -baseline BENCH_pr9.json -checkmulti
fi
