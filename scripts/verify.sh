#!/bin/sh
# Tier-1 verification: build, vet, tests, race detector, plus a one-shot
# smoke run of the benchmark suite and the streaming-pipeline benches.
# Run from the repository root.
#
#   scripts/verify.sh          # full tier-1
#
# Performance numbers come from bash bench/run.sh, not from this script.
set -eux

# Formatting: gofmt must have nothing to rewrite in the root module.
test -z "$(gofmt -l ./internal ./cmd ./examples ./*.go)"

go build ./...
go vet ./...
go test ./...
go test -race ./...
go test -run xxx -bench . -benchtime 1x .

# Repository benchmark: drive every workload at a tiny size with its
# correctness checks (live==batch findings, the store, the campaign
# rows). bench/ is a module of its own, so the root go test skips it.
(cd bench && go test ./...)

# Capture analysis: smoke the synthetic capture generator and the
# capture-scan benchmarks (baseline vs zero-copy batch path).
go test -run xxx -bench 'BenchmarkForensicsScan|BenchmarkSynthesize' -benchtime 1x .

# SSP crypto: smoke one simulated pairing's worth of key generation,
# ECDH (both sides, through the pair memo), f1, g, f2 and f3.
go test -run xxx -bench BenchmarkSSPPairing -benchtime 1x ./internal/btcrypto

# Dense live ingest: smoke one in-process Ingest of a 200k-record
# capture with a finding about every 10 records; the benchmark fails if
# the live finding count differs from AnalyzeBytes or anything drops.
go test -run xxx -bench BenchmarkIngestDense -benchtime 1x ./internal/sentinel

# Live reducer alone: one pass of NewLiveDetector + PushKept + Drain over
# a pre-scanned 1M-record dense capture (ns per kept record, allocs/op).
go test -run xxx -bench BenchmarkLiveReduceDense -benchtime 1x ./internal/forensics

# Untrusted-input fuzz smoke: a few seconds each on the session
# handshake + chunk reader, on the /query parameter parser, on the
# detector's in-place record decoder against the typed hci parsers, on
# the checkpoint codec (any accepted input must be canonical), on the
# JSON string escaper against encoding/json, and on the stored finding
# record decoder (any accepted input must re-encode to itself); and on
# the btsnoop scanner against its reference decoder, over plain readers
# and over arbitrary block splits, joined records and resumed scans.
go test -run '^$' -fuzz '^FuzzScanner$' -fuzztime 5s ./internal/snoop
go test -run '^$' -fuzz '^FuzzSessionHandshake$' -fuzztime 5s ./internal/sentinel
go test -run '^$' -fuzz '^FuzzQueryParams$' -fuzztime 5s ./internal/sentinel
go test -run '^$' -fuzz '^FuzzDecodeKept$' -fuzztime 5s ./internal/forensics
go test -run '^$' -fuzz '^FuzzRestoreState$' -fuzztime 5s ./internal/forensics
go test -run '^$' -fuzz '^FuzzAppendJSONString$' -fuzztime 5s ./internal/sentinel
go test -run '^$' -fuzz '^FuzzFindingRecord$' -fuzztime 5s ./internal/sentinel

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
# Save stdout, then grep: a grep -q on a pipe exits at its first match,
# and btsim, killed by SIGPIPE on its next line, could leave a capture
# unwritten. set -e makes a nonzero btsim exit fail the step.
"$atk_dir/btsim" -scenario stealtooth -seed 7 -o "$atk_dir" > "$atk_dir/stealtooth.out"
grep -q 're-paired=true' "$atk_dir/stealtooth.out"
rc=0
"$atk_dir/hcidump" -analyze "$atk_dir/stealtooth_C.btsnoop" > "$atk_dir/stealtooth.rep" || rc=$?
[ "$rc" -eq 3 ]
grep -q 'silent-repairing' "$atk_dir/stealtooth.rep"
"$atk_dir/btsim" -scenario passkey-guard -repeat 10 -seed 7 > "$atk_dir/guard.out" 2>/dev/null
grep -q '0/10 succeeded' "$atk_dir/guard.out"
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
# The backgrounded daemon opens its stderr file itself, so the file may
# not exist yet on the first poll.
wait_addr() {
    i=0
    addr=
    while [ "$i" -lt 100 ]; do
        [ -f "$1" ] && addr=$(sed -n 's/^blapd: listening tcp //p' "$1")
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
strip_findings "$res_dir/base.jsonl" | sort > "$res_dir/base.findings"
test -s "$res_dir/base.findings"
# One-shot send (no -session) to the same daemon: it exits 0 only after
# the daemon confirmed the stream end, so a second clean stream-end is
# already on the JSONL channel.
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr"
[ "$(grep '"type":"stream-end"' "$res_dir/base.jsonl" | grep -c '"status":"clean"')" -eq 2 ]
kill -TERM "$base_pid"
wait "$base_pid"
# Crash run: same configuration, killed -9 mid-ingest.
"$res_dir/blapd" -tcp 127.0.0.1:0 -store "$res_dir/store_crash" -resume-grace 5m \
    -checkpoint-every 1048576 -ack-every 65536 \
    > "$res_dir/crash1.jsonl" 2> "$res_dir/crash1.err" &
crash_pid=$!
wait_addr "$res_dir/crash1.err"
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr" -session s9 2> "$res_dir/send1.err" &
send_pid=$!
i=0
# Poll every 10 ms: on a 2-CPU host the daemon ingests the whole capture
# in well under 100 ms, so a coarser poll can land the kill after the
# stream ended and the send returned 0 instead of the partial-send 4.
until grep -q '"type":"checkpoint"' "$res_dir/crash1.jsonl"; do
    i=$((i+1)); [ "$i" -lt 1000 ]; sleep 0.01
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
# One-slot resume smoke: a parked session holds no stream slot. With
# -max-streams 1, a -send cut at half the capture must get back into the
# slot its parked stream gave up (the client's dial retry covers the
# moment before the park), resume, and end in exactly one stream-end
# line: clean, with every record of the capture.
"$res_dir/blapd" -tcp 127.0.0.1:0 -max-streams 1 -resume-grace 10s \
    > "$res_dir/slot.jsonl" 2> "$res_dir/slot.err" &
slot_pid=$!
wait_addr "$res_dir/slot.err"
half=$(( $(wc -c < "$res_dir/cap.btsnoop") / 2 ))
"$res_dir/blapd" -send "$res_dir/cap.btsnoop" -tcp "$addr" -session s1 -cut "$half"
wait_clean "$res_dir/slot.jsonl"
kill -TERM "$slot_pid"
wait "$slot_pid"
[ "$(grep -c '"type":"stream-end"' "$res_dir/slot.jsonl")" -eq 1 ]
grep '"type":"stream-end"' "$res_dir/slot.jsonl" | grep '"status":"clean"' | grep -q '"records":1000000,'
rm -rf "$res_dir"

# Transport-chaos differential, full sweep over a small capture: cut
# the session at every one of the 40-record capture's byte offsets,
# resume, and require findings byte-identical to the uninterrupted
# baseline. (go test ./... above runs it too; -count 1 reruns it here
# whatever the test cache holds.)
go test -count 1 -run '^TestResumeDifferentialEveryOffset$' ./internal/sentinel
