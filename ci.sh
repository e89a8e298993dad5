#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The thermal field digests and the energy-balance invariant pin float
# arithmetic, so they also run under the optimised code users get.
echo "==> cargo test --release -q -p thermal"
cargo test --release -q -p thermal

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library crates must stay panic-free on data-dependent paths: no
# unwrap/expect outside #[cfg(test)] (each crate carries a test-scoped
# allow). Errors flow through the typed FlowError vocabulary instead.
# --no-deps keeps the gate off the vendored path dependencies.
echo "==> cargo clippy (panic-free library gate)"
cargo clippy --no-deps -p circuit -p interposer -p thermal -p netlist -p chiplet -p pi -p si -- \
    -D clippy::unwrap_used -D clippy::expect_used

# End-to-end CLI smoke: a two-scenario sweep with JSON output and a
# Chrome trace. Both stdout and the trace file must parse as JSON —
# this exercises the whole observability path (spans, counters, trace
# serialization) plus the sweep's machine-readable output.
echo "==> codesign sweep smoke (--json --trace)"
rm -f /tmp/codesign_smoke_sweep.json /tmp/codesign_smoke_trace.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/smoke_scenarios.json --json \
    --trace /tmp/codesign_smoke_trace.json > /tmp/codesign_smoke_sweep.json
jq -e 'type == "array" and length == 2' /tmp/codesign_smoke_sweep.json > /dev/null
jq -e '.traceEvents | length > 0' /tmp/codesign_smoke_trace.json > /dev/null
echo "    sweep output and trace both parse as JSON"

# Warm-cache smoke: the same sweep through a disk-backed artifact store
# must stay byte-identical to the uncached reference, both on the cold
# run that populates the cache and on a second process that replays it.
# The warm run's --stats counters prove the disk tier actually served
# (store.disk_hit > 0, store.miss == 0) and that the shared physical
# stages never recomputed (the router counters stay at zero).
echo "==> warm-cache sweep smoke (--cache-dir byte-identity + disk hits)"
CACHE_DIR=$(mktemp -d /tmp/codesign_smoke_cache.XXXXXX)
rm -f /tmp/codesign_cache_cold.json /tmp/codesign_cache_warm.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/smoke_scenarios.json --json --cache-dir "$CACHE_DIR" \
    > /tmp/codesign_cache_cold.json
cmp /tmp/codesign_cache_cold.json /tmp/codesign_smoke_sweep.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/smoke_scenarios.json --json --stats --cache-dir "$CACHE_DIR" \
    > /tmp/codesign_cache_warm.json 2> /tmp/codesign_cache_stats.txt
cmp /tmp/codesign_cache_warm.json /tmp/codesign_smoke_sweep.json
counter() { awk -v name="$1" '$1 == name { print $2 }' /tmp/codesign_cache_stats.txt; }
test "$(counter store.disk_hit)" -gt 0
test "$(counter store.miss)" -eq 0
test "$(counter router.nets_routed)" -eq 0
rm -rf "$CACHE_DIR"
echo "    warm cache: byte-identical, served from disk, zero recomputes"

# Shared-store sweep smoke: one batch runs over one artifact store, so
# the 12-scenario sweep (three techs x four knobs) must print the same
# bytes in parallel as in sequence, and must run exactly as many SOR
# sweeps as the three paper points of the same techs: one thermal solve
# per technology, however many scenarios share it.
echo "==> shared-store sweep smoke (parallel == sequential, one thermal solve per tech)"
rm -f /tmp/codesign_shared_par.json /tmp/codesign_shared_seq.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/sweep_shared_thermal.json --json > /tmp/codesign_shared_par.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/sweep_shared_thermal.json --json --sequential > /tmp/codesign_shared_seq.json
cmp /tmp/codesign_shared_par.json /tmp/codesign_shared_seq.json
sor_sweeps() {
    cargo run --release -q -p codesign --bin codesign -- sweep "$1" --stats 2>&1 >/dev/null \
        | awk '$1 == "thermal.sor_sweeps" { print $2 }'
}
SHARED_SWEEPS=$(sor_sweeps examples/sweep_shared_thermal.json)
PAPER_SWEEPS=$(sor_sweeps examples/paper_cheap_techs.json)
test -n "$SHARED_SWEEPS" && test "$SHARED_SWEEPS" -gt 0
test "$SHARED_SWEEPS" -eq "$PAPER_SWEEPS"
echo "    shared sweep: byte-identical, $SHARED_SWEEPS SOR sweeps (= the 3 paper points)"

# Router bench smoke: flow_timing on a single technology must prove the
# parallel flow byte-identical to sequential at every sweep width and
# report non-zero hot-path work counters in its "router" section.
# Writes to /tmp so the published BENCH_flow.json (full six-technology
# run) stays untouched.
echo "==> router bench smoke (flow_timing, one tech)"
rm -f /tmp/codesign_router_smoke.json
FLOW_TIMING_TECHS="silicon 2.5d" \
    FLOW_TIMING_OUT=/tmp/codesign_router_smoke.json \
    cargo run --release -q -p bench --bin flow_timing
jq -e '.outputs_byte_identical == true' /tmp/codesign_router_smoke.json > /dev/null
jq -e '.router.nets_routed > 0 and .router.heap_pops > 0 and .router.expansions > 0' \
    /tmp/codesign_router_smoke.json > /dev/null
echo "    router smoke: byte-identical outputs, hot-path counters recorded"

# Router perf gate. Live half: the single-technology smoke above must
# route its 530 nets well under a generous wall-clock ceiling at one
# worker (~200 ms on the reference box; 2 s allows a badly loaded CI
# host but still catches an algorithmic regression), and because the
# router is sequential its work must not depend on the worker count:
# heap pops and expansions at every sweep width equal the 1-worker
# values. The studies hash is checked live: a fresh paper-default
# six-tech study, built in release, must serialize to the pinned
# FNV-1a value. Published half: BENCH_flow.json must carry a
# single-worker route.nets total under 2x the round-2 router target
# (9000 ms), so a regressing change cannot simply regenerate the
# numbers and slip past.
echo "==> router perf gate (smoke wall clock + width-invariant work, live studies hash, published BENCH_flow.json)"
jq -e '.router.route_nets_total_ms < 2000' /tmp/codesign_router_smoke.json > /dev/null
jq -e '(.parallel_sweep | map(select(.workers == 1)) | .[0].router) as $one
       | $one != null and $one.heap_pops > 0 and (.parallel_sweep | length) > 1
         and all(.parallel_sweep[]; .router.heap_pops == $one.heap_pops
                                    and .router.expansions == $one.expansions)' \
    /tmp/codesign_router_smoke.json > /dev/null
cargo test --release -q -p codesign --test flow_determinism -- paper_studies_hash_is_pinned
jq -e '.router.route_nets_total_ms < 9000' BENCH_flow.json > /dev/null
echo "    router perf gate: smoke under ceiling, work width-invariant, live hash pinned"

# Serve smoke: start the daemon on an ephemeral port, POST the same
# two-scenario file, and require the response bytes to equal the CLI's
# sweep --json stdout exactly (the service contract). Also checks the
# /stats counters moved and that /shutdown drains to a clean exit 0.
echo "==> codesign serve smoke (byte-identity, /stats, drain)"
rm -f /tmp/codesign_serve_log.txt /tmp/codesign_serve_body.json
cargo run --release -q -p codesign --bin codesign -- serve 127.0.0.1:0 \
    > /tmp/codesign_serve_log.txt &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/codesign_serve_log.txt 2>/dev/null && break
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^codesign serve listening on //p' /tmp/codesign_serve_log.txt)
test -n "$SERVE_ADDR"
curl -sS -X POST --data-binary @examples/smoke_scenarios.json \
    "http://$SERVE_ADDR/sweep" > /tmp/codesign_serve_body.json
cmp /tmp/codesign_serve_body.json /tmp/codesign_smoke_sweep.json
jq -e '.requests >= 1 and .completed >= 1 and .context_misses >= 1' \
    <(curl -sS "http://$SERVE_ADDR/stats") > /dev/null
curl -sS -X POST "http://$SERVE_ADDR/shutdown" > /dev/null
wait "$SERVE_PID"
echo "    serve smoke: response byte-identical to sweep --json, clean drain"

# Hardening smoke: a daemon with tight read budgets survives a
# slowloris client, an oversized body declaration, and raw binary
# garbage fired concurrently with a clean sweep. The clean response
# must stay byte-identical to sweep --json, the abuse must land in the
# /stats hardening counters, and /shutdown must still drain cleanly.
echo "==> codesign serve hardening smoke (adversarial clients, byte-identity, drain)"
rm -f /tmp/codesign_hard_log.txt /tmp/codesign_hard_body.json
cargo run --release -q -p codesign --bin codesign -- serve 127.0.0.1:0 \
    --header-read-ms 1000 --body-read-ms 1500 --write-ms 2000 --max-connections 8 \
    > /tmp/codesign_hard_log.txt &
HARD_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/codesign_hard_log.txt 2>/dev/null && break
    sleep 0.1
done
HARD_ADDR=$(sed -n 's/^codesign serve listening on //p' /tmp/codesign_hard_log.txt)
test -n "$HARD_ADDR"
HARD_HOST=${HARD_ADDR%:*}
HARD_PORT=${HARD_ADDR##*:}
# Slowloris: open a connection and drip header bytes one at a time,
# far slower than the 1 s whole-header budget allows.
(
    exec 3<> "/dev/tcp/$HARD_HOST/$HARD_PORT" || exit 0
    printf 'POST /sweep HTTP/1.1\r\n' >&3 2>/dev/null
    for _ in $(seq 1 20); do
        sleep 0.2
        printf 'a' >&3 2>/dev/null || break
    done
    exec 3>&- 2>/dev/null
) &
SLOW_PID=$!
# Raw binary garbage on a second connection.
(
    exec 3<> "/dev/tcp/$HARD_HOST/$HARD_PORT" || exit 0
    head -c 512 /dev/urandom | tr -d '\r\n' >&3 2>/dev/null
    printf '\r\n\r\n' >&3 2>/dev/null
    cat <&3 > /dev/null 2>&1
    exec 3>&- 2>/dev/null
) &
GARBAGE_PID=$!
# Oversized body declaration: must draw 413 without reading a body.
exec 4<> "/dev/tcp/$HARD_HOST/$HARD_PORT"
printf 'POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n' >&4
head -n 1 <&4 | grep -q '413'
exec 4>&-
# Known path, wrong method: 405 with an Allow header.
exec 4<> "/dev/tcp/$HARD_HOST/$HARD_PORT"
printf 'GET /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n' >&4
head -c 512 <&4 | grep -q '405 Method Not Allowed'
exec 4>&-
# The clean sweep, concurrent with all of the above.
curl -sS -X POST --data-binary @examples/smoke_scenarios.json \
    "http://$HARD_ADDR/sweep" > /tmp/codesign_hard_body.json
cmp /tmp/codesign_hard_body.json /tmp/codesign_smoke_sweep.json
wait "$SLOW_PID" "$GARBAGE_PID" 2>/dev/null || true
# Connection-capacity burst: fill all 8 handler slots with idle
# connections, then one more must draw the rejection thread's 503 —
# making the conn_rejected assertion below meaningful. Retried a few
# times because a loaded machine could let the 1 s header budget expire
# mid-burst and free a slot for the probe.
REJECTED=0
for _ in 1 2 3; do
    for FD in $(seq 5 12); do
        eval "exec $FD<> /dev/tcp/$HARD_HOST/$HARD_PORT"
    done
    exec 13<> "/dev/tcp/$HARD_HOST/$HARD_PORT"
    if head -n 1 <&13 | grep -q '503'; then
        REJECTED=1
    fi
    exec 13>&-
    for FD in $(seq 5 12); do
        eval "exec $FD>&-"
    done
    if [ "$REJECTED" -eq 1 ]; then
        break
    fi
done
test "$REJECTED" -eq 1
jq -e '.slow_client_aborts >= 1 and .conn_rejected >= 1' \
    <(curl -sS "http://$HARD_ADDR/stats") > /dev/null
curl -sS -X POST "http://$HARD_ADDR/shutdown" > /dev/null
wait "$HARD_PID"
echo "    hardening smoke: clean sweep byte-identical under abuse, clean drain"

# Rustdoc must build warning-free for the workspace crates (broken
# intra-doc links, bad code fences). --no-deps keeps the gate off the
# vendored path dependencies' docs.
echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI OK"
