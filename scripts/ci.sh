#!/usr/bin/env bash
# Offline CI gate for the insitu workspace.
#
# The workspace has zero external dependencies, so every step runs with
# --offline: a network-less builder (or a hermetic CI runner) must pass.
# Usage: scripts/ci.sh [--quick]
#   --quick  skip the release build and the benchmark-package smokes
#            (debug build + tests only)

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
if [[ $quick -eq 0 ]]; then
    run cargo build --release --workspace --offline
fi
run cargo test -q --workspace --offline

# The benchmark package is its own workspace, so nothing above compiles
# it: a crate-API slip would first show when a PR's benchmark run fails.
# Build it and push two short passes through it — a traced wire_p2p pass
# (replays Frame::encode/FrameDecoder through benchmark/src/layers.rs)
# and an insitu_node pass (the threaded executor's fill/verify under the
# ledger oracle) — and require a clean, correct result line from each.
if [[ $quick -eq 0 ]]; then
    for smoke in "wire_p2p 1" "insitu_node 0"; do
        read -r workload trace <<< "$smoke"
        echo "==> benchmark smoke against the crates ($workload, trace $trace)"
        bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace "$trace" \
            > target/benchmark-smoke.txt
        result=$(tail -n 1 target/benchmark-smoke.txt)
        grep -q '"failed": *0[,}]' <<< "$result" && grep -q '"correct": *true' <<< "$result" \
            || { echo "$result"; echo "benchmark smoke ($workload) failed or incorrect"; exit 1; }
    done
fi

# Chaos smoke: a bounded fuzz run under the standard fault mix, with a
# pinned seed. Executed twice and diffed — the report must be bit-for-bit
# replayable — and `insitu chaos` itself exits nonzero on any invariant
# violation.
chaos_profile=--release
[[ $quick -eq 1 ]] && chaos_profile=
insitu() {
    cargo run -q $chaos_profile -p insitu-cli --offline -- "$@"
}
echo "==> chaos smoke (seed 42, 25 cases, run twice, diff)"
insitu chaos --seed 42 --cases 25 --faults standard > target/chaos-run-1.txt
insitu chaos --seed 42 --cases 25 --faults standard > target/chaos-run-2.txt
diff -u target/chaos-run-1.txt target/chaos-run-2.txt
tail -n 1 target/chaos-run-1.txt

# Subscription-plane chaos replay: the same pinned seed with the
# sub-push drop fault forced high, so the generated standing-query
# cases lose most pushes and must heal through resync gets. Run twice
# and diffed — push/drop counters are part of the replay-stable set.
echo "==> chaos push-drop replay (seed 42, sub-push:0.5, run twice, diff)"
insitu chaos --seed 42 --cases 10 --faults sub-push:0.5 > target/chaos-sub-run-1.txt
insitu chaos --seed 42 --cases 10 --faults sub-push:0.5 > target/chaos-sub-run-2.txt
diff -u target/chaos-sub-run-1.txt target/chaos-sub-run-2.txt
grep -q "sub-push=" target/chaos-sub-run-1.txt
tail -n 1 target/chaos-sub-run-1.txt

# Shm-attach chaos replay, 30 times over: two runs of one seed must
# agree on every ring record and fallback. The tallies used to depend
# on thread timing (a node pulling from itself raced its local put), so
# one pass proves little; thirty in a row is the regression gate.
echo "==> shm-attach chaos replay (seed 33, 30 rounds)"
for round in $(seq 1 30); do
    cargo test -q $chaos_profile -p insitu-chaos --test net_faults --offline \
        shm_attach_chaos_replays_bit_for_bit_from_seed > target/shm-replay.txt 2>&1 \
        || { cat target/shm-replay.txt; echo "shm-attach replay diverged in round $round"; exit 1; }
done

# Arena recycling, 10 times over: one consumer rank pulls 46 MiB through
# an 8 MiB ring, which works only if every mapped copy hands its range
# back the moment its version is consumed. No skew is possible with one
# consumer, so a single ring-full fallback is a release that came late —
# a timing dependence should show here as a flake, not as the next PR's
# regression.
echo "==> one-consumer arena recycling (0 fallbacks, 10 rounds)"
for round in $(seq 1 10); do
    cargo test -q $chaos_profile -p insitu-cli --test integration_net --offline \
        one_consumer_recycles_the_arena_without_a_single_fallback > target/shm-recycle.txt 2>&1 \
        || { cat target/shm-recycle.txt; echo "arena recycling fell back in round $round"; exit 1; }
done

# The 64-connection reactor soak, 30 times over: it counts the threads
# of its own two reactors in a test binary it shares with launch and
# hub tests, so a sibling's threads must never move its count.
echo "==> reactor soak (64 connections, 30 rounds)"
for round in $(seq 1 30); do
    cargo test -q $chaos_profile -p insitu-cli --test integration_net --offline \
        reactor_soaks_64_connections_with_constant_threads > target/reactor-soak.txt 2>&1 \
        || { cat target/reactor-soak.txt; echo "reactor soak failed in round $round"; exit 1; }
done

# The service's RPC port, 10 times over: 1, 16 and 64 idle clients on
# one Service, and the process's thread count must not move with them,
# nor stay up after a completed run, nor grow with a 64-node budget.
echo "==> RPC port thread count (1/16/64 clients, a run, 2/64 nodes, 10 rounds)"
for round in $(seq 1 10); do
    cargo test -q $chaos_profile -p insitu-svc --test rpc_port --offline > target/rpc-port.txt 2>&1 \
        || { cat target/rpc-port.txt; echo "RPC port thread count moved in round $round"; exit 1; }
done

# Stray connections at the hub's port, 10 times over: garbage, a silent
# socket, a hangup, a non-Hello first frame, a Hello outside the run and
# a second claim on a greeted node, all beside a run that must complete
# within 5 s of its last joiner. The silent row is timing-shaped, so one
# pass proves little.
echo "==> hostile handshakes at the hub (10 rounds)"
for round in $(seq 1 10); do
    cargo test -q $chaos_profile -p insitu-core --lib --offline \
        distrib::tests::stray_connections_cost_only_themselves > target/hub-strays.txt 2>&1 \
        || { cat target/hub-strays.txt; echo "a stray connection cost the run in round $round"; exit 1; }
done

# Critical-path profile of the two-app *_cont example on the threaded
# executor. The chrome trace (one slice per flight event + put->pull
# flow arrows) is left in target/ for the CI workflow to upload as an
# artifact. `run --trace-out` writes the same document through the same
# helper: both must carry a flow start and no span-era tally.
echo "==> critical-path profile + run trace (workflows/online, threaded)"
insitu profile workflows/online.dag --config workflows/online.cfg \
    --trace-out target/profile-trace.json
insitu run workflows/online.dag --config workflows/online.cfg \
    --trace-out target/run-trace.json
for trace in target/profile-trace.json target/run-trace.json; do
    grep -q '"ph":"s"' "$trace"
    if grep -q 'droppedSpans' "$trace"; then
        echo "$trace still carries a span tally"; exit 1
    fi
done

# One timeline: the span tracer left insitu-telemetry; the flight
# recorder is the only event buffer and obs::flow the only chrome
# exporter. A second one growing back fails the gate.
echo "==> one timeline, no span tracer"
# (`! grep` would not trip `set -e`, hence the `if`.)
if grep -rnE 'TraceSink|SpanGuard|synthetic_span' crates tests examples; then
    echo "a second timeline grew back"; exit 1
fi
[[ ! -e crates/telemetry/src/trace.rs ]]

# The wire says only what a run says: the CoDS/DART <-> wire boundary is
# eight trait methods, the one reserved frame kind has no sender or
# handler outside the frame table (a standing query's push is a
# PullData nobody requested; the six retired kinds the compiler already
# refuses), the link is built in one call, a remote pull waits in the
# owner's registry rather than on a thread of its own, and the two
# files that are the paper's contribution stay files a reader can hold.
# Any of it growing back fails the gate.
echo "==> narrow wire boundary, reserved frame kinds, file sizes"
if grep -rnE 'fn (publish|dial_peer|sub_open|sub_cancel|sub_lagged|sub_push)\b|set_flight|set_shm|subscribe_local|apply_remote_sub_cancel|apply_remote_sub_push' crates tests examples; then
    echo "a deleted boundary method grew back"; exit 1
fi
if grep -rn 'Frame::SubPush' crates/*/src --include=*.rs \
    | grep -v '^crates/net/src/frame.rs:'; then
    echo "the reserved frame kind has a sender or handler again"; exit 1
fi
# One I/O model: the service's RPC port is a reactor like every other
# socket. No acceptor nap, no thread per client, no sleeping watch
# stream, no hour-long park, and no blocking frame I/O in the service.
if grep -rnE 'svc-rpc|acceptor_loop|fn watch_stream\(|from_secs\(3600\)' crates; then
    echo "the service's second I/O model grew back"; exit 1
fi
if grep -nE 'recv_frame|send_frame' crates/svc/src/service.rs; then
    echo "the service does blocking frame I/O again"; exit 1
fi
# Nor does the hub: it greets its joiners on its reactor, and telemetry
# ships unpaced, so the ack that paced it stays retired.
if sed '/^#\[cfg(test)\]/,$d' crates/net/src/hub.rs \
    | grep -nE 'recv_frame|send_frame|set_read_timeout|read_hello'; then
    echo "the hub reads a socket outside its reactor again"; exit 1
fi
if grep -rnE 'TelemetryAck|TELEMETRY_ACK_TIMEOUT' crates; then
    echo "the telemetry ack grew back"; exit 1
fi
if grep -rn 'net-pull-wait' crates; then
    echo "a pull waiter thread grew back"; exit 1
fi
# One queue: the standard library's channel. And a run owns its joiner
# threads: the service keeps no standing pool beside its engines.
if grep -rnE 'insitu_util::channel|mod channel|pool_worker|struct Assignment|svc-pool' crates; then
    echo "the hand-rolled channel or the standing joiner pool grew back"; exit 1
fi
long=$(find crates/cods/src crates/net/src -name '*.rs' ! -path crates/net/src/frame.rs \
    -exec wc -l {} + | awk '$2 != "total" && $1 > 1200')
if [[ -n "$long" ]]; then
    echo "$long"; echo "a cods/net source file is over 1200 lines"; exit 1
fi

# Performance regression gate: the deterministic modeled gate document
# (per-app retrieve times + profiler category totals) must not regress
# past 10% against the checked-in baseline. Refresh the baseline after
# an intentional model change with:
#   insitu compare workflows/online.dag --config workflows/online.cfg \
#       --write-baseline workflows/baseline_online.json
echo "==> performance gate (vs workflows/baseline_online.json)"
insitu compare workflows/online.dag --config workflows/online.cfg \
    --gate workflows/baseline_online.json

# Distributed loopback smoke: 1 in-process server + 2 real joiner
# processes over 127.0.0.1 running the mixed *_cont + *_seq workflow.
# `insitu launch` itself re-runs the workflow single-process and exits
# nonzero unless the merged transfer ledger is byte-identical; the
# merged ledger JSON lands in target/ for the CI workflow to upload.
echo "==> distributed loopback smoke (1 server + 2 joiners over 127.0.0.1)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --ledger-out target/launch-ledger.json \
    | tee target/launch-report.txt
grep -q "byte-identical to the single-process run" target/launch-report.txt
test -s target/launch-ledger.json

# Same-host shared-memory data plane: round-robin placement forces
# cross-node coupling pulls, and every launch process shares this host,
# so with shm on (the default) each one must ride a /dev/shm segment —
# nonzero shm frame events, zero PullData through the hub, zero TCP
# fallbacks — while the merged ledger stays byte-identical (the ledger
# accounts simulated placement, not physical transport). `--no-shm` is
# the escape hatch and must produce the identical ledger on the socket.
echo "==> distributed loopback smoke, shared-memory data plane"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --strategy round-robin | tee target/launch-shm-report.txt
grep -q "byte-identical to the single-process run" target/launch-shm-report.txt
grep -Eq "^shm: +[1-9][0-9]* shared-memory frame event\(s\), 0 PullData through the hub, 0 fallback\(s\) \(0 ring-full\)" \
    target/launch-shm-report.txt
echo "==> distributed loopback smoke, shared memory disabled (--no-shm)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --strategy round-robin --no-shm | tee target/launch-no-shm-report.txt
grep -q "byte-identical to the single-process run" target/launch-no-shm-report.txt
grep -q "shm:       disabled (--no-shm)" target/launch-no-shm-report.txt
# Every cross-node PullData of that run crossed two sockets and the
# hub's relay. The only copies on the wire are the kernel's: no process
# may have copied a payload byte (`net.payload_copy_bytes`, hub and
# joiners summed).
grep -q "^copies:    0 PullData payload byte(s) copied in user space" target/launch-no-shm-report.txt

# The same smoke under p2p routing: PullData flows over direct
# node<->node links and launch itself asserts — via the
# net.pull_frames_hub counter — that the hub carried control traffic
# only. The merged ledger must still be byte-identical.
echo "==> distributed loopback smoke, p2p data plane (--p2p)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --p2p | tee target/launch-p2p-report.txt
grep -q "byte-identical to the single-process run" target/launch-p2p-report.txt
grep -q "p2p:       0 PullData frames through the hub" target/launch-p2p-report.txt
# And with the payloads on the direct sockets (round-robin placement,
# no shared memory): still not one payload byte copied in user space.
echo "==> distributed loopback smoke, p2p data plane on the socket (--p2p --no-shm)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --p2p --no-shm --strategy round-robin | tee target/launch-p2p-wire-report.txt
grep -q "byte-identical to the single-process run" target/launch-p2p-wire-report.txt
grep -q "p2p:       0 PullData frames through the hub" target/launch-p2p-wire-report.txt
grep -q "^copies:    0 PullData payload byte(s) copied in user space" target/launch-p2p-wire-report.txt

# Standing-query smoke: the monitor workflow couples a producer and a
# consumer, plus a one-task monitor app holding a whole-domain
# subscription. The subscriber role byte-compares every pushed payload
# against a fresh per-version get and fails the run on the first
# mismatch, and `launch` still asserts ledger byte-identity vs the
# single-process rerun — so a passing run certifies push == pull
# byte-for-byte. The census is the push plane's gate, and it is exact:
# monitor.toml runs 3 iterations with `every = 1`, so 3 versions are on
# stride; each is put by the 2 producer ranks, both of whose pieces
# overlap the whole-domain query — 3 x 2 = 6 pushes — and assembles
# into one delivery to the single subscriber task — 3 deliveries. A
# push that is dropped, duplicated or lagged changes a count. The
# workflow maps to two nodes, so one producer piece per version is
# pushed across processes, on the pull answer's carrier: the shm ring
# with no fallback by default, the socket with no payload byte copied
# in user space under --no-shm.
for lane in default no-shm; do
    flags=
    [[ $lane == no-shm ]] && flags=--no-shm
    echo "==> standing-query smoke (workflows/monitor.toml, 1 server + 2 joiners, $lane)"
    insitu launch workflows/monitor.toml --procs 3 $flags | tee target/launch-sub-$lane-report.txt
    grep -q "byte-identical to the single-process run" target/launch-sub-$lane-report.txt
    grep -Eq "^sub: +1 subscription\(s\), 6 push\(es\), 3 delivery\(ies\), 0 lagged" \
        target/launch-sub-$lane-report.txt
done
grep -Eq "^shm: +[1-9][0-9]* shared-memory frame event\(s\), 0 PullData through the hub, 0 fallback\(s\) \(0 ring-full\)" \
    target/launch-sub-default-report.txt
grep -q "^copies:    0 PullData payload byte(s) copied in user space" target/launch-sub-no-shm-report.txt

# Merged distributed telemetry: the round-robin placement forces
# cross-node pulls, every joiner ships its flight recording to the hub,
# and the hub stitches one cross-process trace. The trace's structural
# fields (process lanes, stitched wire edges, unmatched send/recv
# counts) are deterministic and diffed against a checked-in baseline;
# the merged trace + profile land in target/ for the CI workflow to
# upload as artifacts. Refresh the baseline after an intentional
# topology change by re-running this step and committing the grep line.
echo "==> merged distributed telemetry (vs workflows/baseline_distrib.json)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --procs 3 --p2p --strategy round-robin \
    --trace-out target/launch-trace.json \
    --profile-out target/launch-profile.json \
    | tee target/launch-telemetry-report.txt
grep -q "cross-process edge(s) stitched" target/launch-telemetry-report.txt
if grep -q "^warning:" target/launch-telemetry-report.txt; then
    echo "merged telemetry degraded on a healthy run"; exit 1
fi
grep -o '"processes":[0-9]*,"stitched":[0-9]*,"unmatchedSends":[0-9]*,"unmatchedRecvs":[0-9]*' \
    target/launch-trace.json | diff - workflows/baseline_distrib.json
test -s target/launch-profile.json

# Figures smoke: the one experiment binary regenerates the fastest
# figure and must leave its machine-readable rows behind (`figures`
# itself exits nonzero when a file cannot be written).
echo "==> figures smoke (--only 10)"
rm -f target/BENCH_fig10.json
BENCH_OUT_DIR=target cargo run -q $chaos_profile -p insitu-bench --bin figures --offline \
    -- --only 10
test -s target/BENCH_fig10.json

# One harness: `crates/bench` is the paper's figures and nothing else.
# Timings belong to benchmark/ (insitu-perf), so a second binary or a
# benches/ directory growing back here fails the gate.
echo "==> one experiment binary, no cargo bench targets"
[[ "$(ls crates/bench/src/bin)" == "figures.rs" ]]
[[ ! -e crates/bench/benches ]]

# Multi-tenant service smoke: one `insitu serve` service process, three
# concurrent submissions (raw dag/cfg, workflow.toml, and a victim that
# is cancelled mid-flight), polled to completion over the status RPC.
# Every completed run's artifact ledger must be byte-identical to the
# standalone `insitu launch` ledger produced above; the per-run
# artifacts stay in target/ for the CI workflow to upload.
echo "==> multi-tenant service smoke (3 concurrent runs, 1 cancelled)"
bin=target/release/insitu
[[ $quick -eq 1 ]] && bin=target/debug/insitu
rm -rf target/svc-artifacts
mkdir -p target/svc-artifacts
"$bin" serve --listen 127.0.0.1:0 --max-runs 4 --pool-nodes 8 \
    --artifacts target/svc-artifacts > target/svc-server.log &
svc_pid=$!
trap 'kill $svc_pid 2>/dev/null || true' EXIT
svc_addr=
for _ in $(seq 1 100); do
    svc_addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' target/svc-server.log | head -n 1)
    [[ -n "$svc_addr" ]] && break
    sleep 0.2
done
[[ -n "$svc_addr" ]]
"$bin" submit --connect "$svc_addr" --name plain \
    --dag workflows/distrib.dag --config workflows/distrib.cfg
"$bin" submit --connect "$svc_addr" --name authored workflows/distrib.toml
"$bin" submit --connect "$svc_addr" --name victim \
    --dag workflows/distrib.dag --config workflows/distrib.cfg
"$bin" cancel --connect "$svc_addr" --run 3
for _ in $(seq 1 300); do
    "$bin" status --connect "$svc_addr" > target/svc-status.txt
    grep -Eq ' (queued|running) ' target/svc-status.txt || break
    sleep 1
done
cat target/svc-status.txt
grep -Eq '^run +1 +done' target/svc-status.txt
grep -Eq '^run +2 +done' target/svc-status.txt
grep -Eq '^run +3 +(done|cancelled)' target/svc-status.txt
"$bin" status --connect "$svc_addr" --run 1 --json > target/svc-run-1.json
grep -q '"state":"done"' target/svc-run-1.json
grep -q '"link_stalls"' target/svc-run-1.json
# Live streaming: `watch --once` must deliver exactly one Progress
# frame (the CI-friendly mode; a TTY gets the in-place refreshing
# table instead).
"$bin" watch --connect "$svc_addr" --run 1 --once | tee target/svc-watch.txt
grep -q "1 progress frame(s), final state done" target/svc-watch.txt
# Byte-diff each completed run's ledger artifact against the standalone
# launch ledger ($(...) strips the launch file's trailing newline).
for run in 1 2; do
    diff "target/svc-artifacts/run-$run.ledger.json" \
        <(printf '%s' "$(cat target/launch-ledger.json)")
done
if grep -Eq '^run +3 +done' target/svc-status.txt; then
    diff target/svc-artifacts/run-3.ledger.json \
        <(printf '%s' "$(cat target/launch-ledger.json)")
fi
kill $svc_pid
wait $svc_pid 2>/dev/null || true
trap - EXIT

# Idle threads do not scale with the node budget: a run's joiner threads
# live and die with the run, so an idle service is its main thread, the
# RPC port's reactor, the scheduler and the watchdog, whatever
# --pool-nodes says. Counts only, read from /proc/<pid>/task/*/comm.
echo "==> idle service thread census (--pool-nodes 64, 4 threads)"
"$bin" serve --listen 127.0.0.1:0 --pool-nodes 64 > target/svc-census.log &
svc_pid=$!
trap 'kill $svc_pid 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' target/svc-census.log && break
    sleep 0.2
done
threads=$(cat /proc/$svc_pid/task/*/comm | sort | tr '\n' ' ')
if [[ "$threads" != "insitu net-reactor-svc svc-scheduler svc-watchdog " ]]; then
    echo "idle service threads: $threads"; exit 1
fi
kill $svc_pid
wait $svc_pid 2>/dev/null || true
trap - EXIT

# Service footprint: a run gives back what it took. 60 tiny runs through
# the shipped `insitu serve`, /proc/<pid>/{status,fd,maps} read after
# runs 20 and 60: the fd count must not have grown (a leaked link keeps
# its waker eventfd and both unlinked segments open), nor the mapping
# count past allocator jitter (a leaked link keeps both segments
# mapped, an unreaped engine its stack), no shared memory may be
# resident while idle, and RSS may grow by at most 64 KiB per run
# (what a terminal run retains is ~12 KiB; the leak was 2.2 MiB).
# Counts and sizes only — no wall-clock ratio.
echo "==> svc-footprint (60 runs, /proc census after runs 20 and 60)"
scripts/svc-footprint.sh "$bin" 20 60

# Link-health watchdog: a second service instance armed with the
# link-slow chaos fault (every PullData send held 15-50 ms on the
# wire) and a 10 ms stall threshold. The watchdog must count at least
# one stall episode and surface a health event in `status --json` —
# and the run must still complete and verify: the watchdog observes,
# it never cancels. Pinned to --no-shm: the probe measures socket
# link health, and the default shared-memory plane would carry the
# PullData payloads past the slowed wire.
echo "==> link-health watchdog (chaos link-slow:1.0, 10 ms stall threshold)"
"$bin" serve --listen 127.0.0.1:0 --max-runs 1 --pool-nodes 8 --no-shm \
    --faults link-slow:1.0 --seed 42 --stall-ms 10 \
    > target/svc-chaos-server.log &
svc_pid=$!
trap 'kill $svc_pid 2>/dev/null || true' EXIT
svc_addr=
for _ in $(seq 1 100); do
    svc_addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' target/svc-chaos-server.log | head -n 1)
    [[ -n "$svc_addr" ]] && break
    sleep 0.2
done
[[ -n "$svc_addr" ]]
"$bin" submit --connect "$svc_addr" --name slow-links \
    --dag workflows/distrib.dag --config workflows/distrib.cfg
for _ in $(seq 1 300); do
    "$bin" status --connect "$svc_addr" > target/svc-chaos-status.txt
    grep -Eq ' (queued|running) ' target/svc-chaos-status.txt || break
    sleep 1
done
grep -Eq '^run +1 +done' target/svc-chaos-status.txt
"$bin" status --connect "$svc_addr" --run 1 --json > target/svc-chaos-run-1.json
grep -q '"state":"done"' target/svc-chaos-run-1.json
if grep -q '"link_stalls":0' target/svc-chaos-run-1.json; then
    echo "watchdog never tripped under link-slow:1.0"; exit 1
fi
grep -q 'link-stall' target/svc-chaos-run-1.json
kill $svc_pid
wait $svc_pid 2>/dev/null || true
trap - EXIT

echo "==> CI gate passed"
