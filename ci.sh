#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

# perfbench is its own workspace, so the root build never compiles it.
# Build it and run its unit tests here: a codesign API change that
# breaks the benchmark then fails CI, not the next benchmark run. The
# root target directory holds the workspace crates the release build
# just compiled, so only codesign and perfbench are rebuilt.
echo "==> perfbench build + unit tests"
CARGO_TARGET_DIR="$PWD/target" cargo build --release --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR="$PWD/target" cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

# The benches are plain `main`s with no harness: run each once in the
# dev build the tests just made, so a bench that no longer runs fails
# here. `router_kernel` (about a minute) stays a manual run.
echo "==> benches, one run each (dev build)"
cargo test -q -p bench --bench thermal_kernel --bench render_kernel --bench bench_signal_power

# The thermal field digests and the energy-balance invariant pin float
# arithmetic, so they also run under the optimised code users get.
echo "==> cargo test --release -q -p thermal"
cargo test --release -q -p thermal

# The JSON writer's number fast paths must match `Display` byte for
# byte under the optimised codegen too, not only in the debug build.
echo "==> cargo test --release -q -p serde -p serde_json"
cargo test --release -q -p serde -p serde_json

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library crates must stay panic-free on data-dependent paths: no
# unwrap/expect outside #[cfg(test)] (each crate carries a test-scoped
# allow). Errors flow through the typed FlowError vocabulary instead.
# --no-deps keeps the gate off the vendored path dependencies.
echo "==> cargo clippy (panic-free library gate)"
cargo clippy --no-deps -p circuit -p interposer -p thermal -p netlist -p chiplet -p pi -p si \
    -p techlib -p codesign -- \
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
# One counter's value from a --stats table.
counter() { awk -v name="$2" '$1 == name { print $2 }' "$1"; }
test "$(counter /tmp/codesign_cache_stats.txt store.disk_hit)" -gt 0
test "$(counter /tmp/codesign_cache_stats.txt store.miss)" -eq 0
test "$(counter /tmp/codesign_cache_stats.txt router.nets_routed)" -eq 0
rm -rf "$CACHE_DIR"
echo "    warm cache: byte-identical, served from disk, zero recomputes"

# Shared-store sweep smoke: one batch runs over one artifact store, so
# the 12-scenario sweep (three techs x four knobs) must print the same
# bytes in parallel as in sequence, and must run exactly as many SOR
# sweeps as the three paper points of the same techs: one thermal solve
# per technology, however many scenarios share it. Its router work is
# pinned too, so a search change shows on a knob sweep and not only on
# the paper's six techs; like the six-tech pins below, a deliberate
# search change re-pins these counts. The routed-net count also pins the
# sharing: a tech's loss-tangent and metal-thickness scenarios share
# one route, so the twelve scenarios route six layouts.
echo "==> shared-store sweep smoke (parallel == sequential, one thermal solve per tech, pinned router work)"
rm -f /tmp/codesign_shared_par.json /tmp/codesign_shared_seq.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/sweep_shared_thermal.json --json > /tmp/codesign_shared_par.json
cargo run --release -q -p codesign --bin codesign -- \
    sweep examples/sweep_shared_thermal.json --json --sequential > /tmp/codesign_shared_seq.json
cmp /tmp/codesign_shared_par.json /tmp/codesign_shared_seq.json
sweep_stats() {
    cargo run --release -q -p codesign --bin codesign -- sweep "$1" --stats 2> "$2" > /dev/null
}
sweep_stats examples/sweep_shared_thermal.json /tmp/codesign_shared_stats.txt
sweep_stats examples/paper_cheap_techs.json /tmp/codesign_paper_stats.txt
SHARED_SWEEPS=$(counter /tmp/codesign_shared_stats.txt thermal.sor_sweeps)
PAPER_SWEEPS=$(counter /tmp/codesign_paper_stats.txt thermal.sor_sweeps)
test -n "$SHARED_SWEEPS" && test "$SHARED_SWEEPS" -gt 0
test "$SHARED_SWEEPS" -eq "$PAPER_SWEEPS"
test "$(counter /tmp/codesign_shared_stats.txt router.nets_routed)" -eq 1794
test "$(counter /tmp/codesign_shared_stats.txt router.heap_pops)" -eq 6486564
test "$(counter /tmp/codesign_shared_stats.txt router.expansions)" -eq 4540787
echo "    shared sweep: byte-identical, $SHARED_SWEEPS SOR sweeps (= the 3 paper points)," \
    "pinned nets/pops/expansions"

# Fault-injection smoke: every fault site armed through CODESIGN_FAULTS
# must fail the Glass 2.5D study with its typed error, exit 1: not 0
# (the site was never reached) and not 101 (a panic). The sites are
# read from `techlib::faults::SITES`; the count check catches a change
# to that list's layout that the read would silently miss.
echo "==> fault-injection smoke (CODESIGN_FAULTS=<site> codesign glass25d exits 1)"
SITES=$(sed -n 's/^    "\([a-z]*\.[a-z]*\)", *\/\/.*/\1/p' crates/techlib/src/faults.rs)
test "$(echo "$SITES" | wc -l)" -eq 8
for SITE in $SITES; do
    STATUS=0
    CODESIGN_FAULTS=$SITE cargo run --release -q -p codesign --bin codesign -- glass25d \
        > /dev/null 2> /tmp/codesign_fault_stderr.txt || STATUS=$?
    if [ "$STATUS" -ne 1 ] || ! grep -q '^error: ' /tmp/codesign_fault_stderr.txt; then
        echo "CODESIGN_FAULTS=$SITE exited $STATUS, expected 1 with an error line" >&2
        cat /tmp/codesign_fault_stderr.txt >&2
        exit 1
    fi
done
echo "    fault injection: all $(echo "$SITES" | wc -l) sites fail with exit 1"

# Summed route.nets milliseconds of a --stats table; fails when the
# table has no route.nets row, so a run that never routed cannot pass.
route_ms() {
    awk '$1 == "route.nets" { ms += $NF; rows++ } END { if (!rows) exit 1; printf "%.1f\n", ms }' "$1"
}
# Exits 0 when the decimal $1 is below $2.
below() { awk -v x="$1" -v bound="$2" 'BEGIN { exit !(x < bound) }'; }

# Router smoke: one technology at one and four workers. The two stdouts
# must be byte-identical, the router's hot-path counters must be
# non-zero and, because the router is sequential, equal at both widths.
# At one worker the route.nets spans never overlap, so their sum is the
# router's CPU cost: ~300 ms on the 2-vCPU reference box; 2 s allows a
# badly loaded CI host but still catches an algorithmic regression.
echo "==> router smoke (silicon25d --stats at 1 and 4 workers)"
for WORKERS in 1 4; do
    CODESIGN_THREADS=$WORKERS cargo run --release -q -p codesign --bin codesign -- \
        silicon25d --json --stats \
        > "/tmp/codesign_router_$WORKERS.json" 2> "/tmp/codesign_router_$WORKERS.txt"
done
cmp /tmp/codesign_router_1.json /tmp/codesign_router_4.json
test "$(counter /tmp/codesign_router_1.txt router.nets_routed)" -gt 0
for COUNTER in router.heap_pops router.expansions; do
    test "$(counter /tmp/codesign_router_1.txt "$COUNTER")" -gt 0
    test "$(counter /tmp/codesign_router_1.txt "$COUNTER")" \
        -eq "$(counter /tmp/codesign_router_4.txt "$COUNTER")"
done
SMOKE_ROUTE_MS=$(route_ms /tmp/codesign_router_1.txt)
below "$SMOKE_ROUTE_MS" 2000
echo "    router smoke: byte-identical, work width-invariant, route.nets $SMOKE_ROUTE_MS ms at 1 worker"

# Six-tech gate: the paper's whole study at one and two workers must
# print the same bytes and do exactly the pinned router and thermal
# work at both widths. A wall-clock ceiling only catches large
# slowdowns; these counts move with any change to the router's search
# or the thermal solver's stopping rule, and such a change re-pins them
# on purpose. The studies hash is checked live: a fresh paper-default
# study, built in release, must serialize to the pinned FNV-1a value.
#
# Both runs are also timed: a parallel path slower than one worker is a
# bug, so on a host with at least two cores the two-worker cold run
# must beat the one-worker one (about 5 s against 10 s on the 2-vCPU
# reference box).
echo "==> six-tech gate (--all --stats at 1 and 2 workers, pinned work, live studies hash)"
for WORKERS in 1 2; do
    START_NS=$(date +%s%N)
    CODESIGN_THREADS=$WORKERS cargo run --release -q -p codesign --bin codesign -- \
        --all --json --stats \
        > "/tmp/codesign_all_$WORKERS.json" 2> "/tmp/codesign_all_$WORKERS.txt"
    declare "ALL_MS_$WORKERS=$(( ($(date +%s%N) - START_NS) / 1000000 ))"
done
cmp /tmp/codesign_all_1.json /tmp/codesign_all_2.json
if [ "$(nproc)" -ge 2 ]; then
    test "$ALL_MS_2" -lt "$ALL_MS_1"
fi
jq -e 'length == 6' /tmp/codesign_all_1.json > /dev/null
for WORKERS in 1 2; do
    test "$(counter "/tmp/codesign_all_$WORKERS.txt" router.heap_pops)" -eq 57763836
    test "$(counter "/tmp/codesign_all_$WORKERS.txt" router.expansions)" -eq 41042002
    test "$(counter "/tmp/codesign_all_$WORKERS.txt" thermal.sor_sweeps)" -eq 6222
done
cargo test --release -q -p codesign --test flow_determinism -- paper_studies_hash_is_pinned
echo "    six techs: byte-identical, pinned pops/expansions/SOR sweeps, live hash pinned," \
    "cold wall $ALL_MS_1 ms at 1 worker, $ALL_MS_2 ms at 2"

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

# SIGTERM drain smoke: a daemon serving a sweep must drain and exit 0
# on SIGTERM, within 5 s. The accept loop waits in poll(2), which a
# signal interrupts, so the exit should follow the signal at once.
echo "==> codesign serve SIGTERM smoke (byte-identity, drain on SIGTERM)"
rm -f /tmp/codesign_term_log.txt /tmp/codesign_term_body.json
cargo run --release -q -p codesign --bin codesign -- serve 127.0.0.1:0 \
    > /tmp/codesign_term_log.txt &
TERM_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" /tmp/codesign_term_log.txt 2>/dev/null && break
    sleep 0.1
done
TERM_ADDR=$(sed -n 's/^codesign serve listening on //p' /tmp/codesign_term_log.txt)
test -n "$TERM_ADDR"
curl -sS -X POST --data-binary @examples/smoke_scenarios.json \
    "http://$TERM_ADDR/sweep" > /tmp/codesign_term_body.json
cmp /tmp/codesign_term_body.json /tmp/codesign_smoke_sweep.json
kill -TERM "$TERM_PID"
for _ in $(seq 1 50); do
    kill -0 "$TERM_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$TERM_PID" 2>/dev/null; then
    echo "codesign serve still running 5 s after SIGTERM" >&2
    kill -KILL "$TERM_PID"
    exit 1
fi
wait "$TERM_PID"
echo "    SIGTERM smoke: response byte-identical to sweep --json, exit 0 after SIGTERM"

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

# Router wall-clock gate, last so every other gate has already run: the
# six-tech study's summed route.nets at one worker (from the six-tech
# gate's run above) must stay under 9000 ms, twice the round-2 router
# target.
echo "==> router wall-clock gate (six techs, route.nets at 1 worker < 9000 ms)"
ALL_ROUTE_MS=$(route_ms /tmp/codesign_all_1.txt)
echo "    route.nets at 1 worker: $ALL_ROUTE_MS ms"
below "$ALL_ROUTE_MS" 9000

echo "CI OK"
