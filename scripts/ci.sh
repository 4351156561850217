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
# Every intra-doc link resolves, and none from a public item's docs
# reaches a private one.
echo "==> rustdoc (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --offline -q
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

# Stress lanes: what each row guards is timing-shaped, so one pass proves
# little and a flake here is the regression gate. Each row is one test
# binary and filter — or several, separated by `;` — run round after
# round; every round must pass and each binary must have run a test, so
# a filter that matches none fails its lane.
#  - shm-attach replay: two runs of one seed agree on every ring record
#    and fallback (the tallies once raced a node's pull from itself).
#  - arena recycling: one consumer pulls 46 MiB through an 8 MiB ring,
#    which works only if every mapped copy hands its range back the
#    moment its version is consumed; one ring-full fallback fails it.
#  - reactor soak: 64 connections, and the thread count of its own two
#    reactors must not move with a sibling test's threads.
#  - consumption window: a parked producer is woken only by the get that
#    completes its version or a changed expectation, so a lost wakeup
#    costs a whole get_timeout (every wait_version_consumed_* test).
#  - pull path: a present key is handed over inline and only an absent
#    one parks a waiter (every runtime::tests::pull_many_* test, the
#    chaos pull faults and the get allocation budget).
#  - JSON linearity: a wall-clock ratio read beside a parallel test run;
#    linear reads ~16x across its 16x inputs, quadratic ~256x, and it
#    fails above 48x.
#  - RPC port: 1, 16 and 64 idle clients on one Service, and the thread
#    count must not move with them, stay up after a run, or grow with a
#    64-node budget.
#  - hostile handshakes: garbage, silence, a hangup, a non-Hello first
#    frame, a Hello outside the run and a second claim on a greeted node,
#    beside a run that must complete within 5 s of its last joiner.
#  - killed joiner: one `insitu join` child killed once every joiner is
#    greeted; the run must fail naming that node within 10 s and the
#    killed pid's /dev/shm segments must reap.
#  - own shelves: every buffer goes back to the shelf of the run or
#    reactor that made it, so the pool tests share no process-wide state
#    and hold on one test thread and on the default number alike.
pool_tests="-p insitu-util --lib recycle::tests::;-p insitu-cods --test recycled_gets;\
-p insitu-cods --test run_shelves;-p insitu-net --test recycled_payloads;\
-p insitu-net --test relayed_payloads"
stress_lanes=(
    "30|shm-attach chaos replay (seed 33)|-p insitu-chaos --test net_faults shm_attach_chaos_replays_bit_for_bit_from_seed"
    "10|one-consumer arena recycling (0 fallbacks)|-p insitu-cli --test integration_net one_consumer_recycles_the_arena_without_a_single_fallback"
    "30|reactor soak (64 connections)|-p insitu-cli --test integration_net reactor_soaks_64_connections_with_constant_threads"
    "30|consumption-window wakes|-p insitu-cods --lib space::tests::wait_version_consumed_"
    "30|pull_many delivery|-p insitu-dart --lib runtime::tests::pull_many_"
    "30|chaos pulls|-p insitu-cods --test chaos_pulls"
    "30|get allocation budget|-p insitu-cods --test get_allocs"
    "30|JSON parse linearity (64 KiB -> 1 MiB)|-p insitu-telemetry --lib json::tests::parse_time_is_linear_in_document_size"
    "10|RPC port thread count (1/16/64 clients, a run, 2/64 nodes)|-p insitu-svc --test rpc_port"
    "10|hostile handshakes at the hub|-p insitu-core --lib distrib::tests::stray_connections_cost_only_themselves"
    "10|killed joiner process|-p insitu-cli --test integration_net a_killed_joiner_process_fails_its_run_by_node_within_bound"
    "10|pool tests on their own shelves (one test thread)|${pool_tests//;/ -- --test-threads=1;} -- --test-threads=1"
    "10|pool tests on their own shelves (default test threads)|$pool_tests"
)
for lane in "${stress_lanes[@]}"; do
    IFS='|' read -r rounds label runs <<< "$lane"
    IFS=';' read -ra runs <<< "$runs"
    echo "==> $label ($rounds rounds)"
    for round in $(seq 1 "$rounds"); do
        for args in "${runs[@]}"; do
            # $args is a list of cargo arguments: split on purpose.
            # shellcheck disable=SC2086
            cargo test -q $chaos_profile --offline $args > target/stress-lane.txt 2>&1 \
                || { cat target/stress-lane.txt; echo "$label failed in round $round"; exit 1; }
            grep -q "test result: ok. [1-9]" target/stress-lane.txt \
                || { cat target/stress-lane.txt; echo "$label ran no test: $args"; exit 1; }
        done
    done
done

# Large buffers are born on huge pages: an 8 MiB `fill_field` and an
# 8 MiB `get_cont` assembly must each land in a mapping whose smaps
# entry reads `THPeligible: 1` (0 where the host's THP mode is
# `[never]`; the tests print which branch ran), a 4 MiB sequential put
# must stage bytes on a 2 MiB boundary whose first and last MiB read
# the same, two versions of a 1.77 MB sequential piece must sit back to
# back in one aligned slab and share its first huge page, the slab fill
# must be `fill_field` bit for bit, dropped aligned arrays must give
# their memory back, a slab must keep its memory while any piece of it
# lives and give it back with the last, waves of recycled 8 MiB
# buffers must give theirs back when each wave's end empties their
# shelf, the advice's range arithmetic never reaches outside a buffer,
# and the `insitu`
# binary's allocator (`HugeAlloc`, declared by its own test binary and by
# the fill, get and slab ones) must admit exactly the census sizes, start
# an admitted block on a huge page that its first write faults whole,
# keep a block's contents across resizes over its rule and zero a reused
# block. Each of the seven binaries must run a test: a filter that
# matches none is a failure.
echo "==> buffers born on huge pages (THPeligible of an 8 MiB fill and get, slab staging)"
cargo test -q $chaos_profile -p insitu-core -p insitu-cods --test huge_pages --offline \
    -- --nocapture > target/huge-pages.txt 2>&1 \
    && cargo test -q $chaos_profile -p insitu-util --lib --offline huge::tests:: \
    >> target/huge-pages.txt 2>&1 \
    && cargo test -q $chaos_profile -p insitu-util --test huge_rss --offline \
    -- --nocapture >> target/huge-pages.txt 2>&1 \
    && cargo test -q $chaos_profile -p insitu-util --test huge_slab_rss --offline \
    -- --nocapture >> target/huge-pages.txt 2>&1 \
    && cargo test -q $chaos_profile -p insitu-util --test recycle_rss --offline \
    -- --nocapture >> target/huge-pages.txt 2>&1 \
    && cargo test -q $chaos_profile -p insitu-util --test huge_alloc --offline \
    -- --nocapture >> target/huge-pages.txt 2>&1 \
    || { cat target/huge-pages.txt; echo "a buffer was not born on huge pages"; exit 1; }
[ "$(grep -c "test result: ok. [1-9]" target/huge-pages.txt)" -eq 7 ] \
    || { cat target/huge-pages.txt; echo "a huge-page test binary ran no test"; exit 1; }
grep "THP mode" target/huge-pages.txt

# The field kernels: the portable body and the instance this host
# dispatches to (AVX-512 F/DQ/VL where detected) fill `field_value` bit
# for bit on every vector tail, into a `Vec` and a slab's `HugeCells` alike,
# and count exactly the corrupted cells. The log names the instance
# that ran; a filter that matches no test is a failure.
echo "==> field kernels (portable and dispatched instances, bit for bit)"
cargo test -q $chaos_profile -p insitu-core --lib --offline exec::tests:: \
    -- --nocapture > target/field-kernels.txt 2>&1 \
    || { cat target/field-kernels.txt; echo "the field kernel instances disagree"; exit 1; }
grep -q "test result: ok. [1-9]" target/field-kernels.txt \
    || { cat target/field-kernels.txt; echo "no field kernel test ran"; exit 1; }
grep -o "field kernel: [a-z0-9]*" target/field-kernels.txt

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
# one trait of seven methods (CoDS reaches the wire only through its
# runtime's Transport, and whether a process hosts every client is
# derived, not asked), the one reserved frame kind has no sender or
# handler outside the frame table (a standing query's push is a
# PullData nobody requested; the six retired kinds the compiler already
# refuses), the link is built in one call, a remote pull waits in the
# owner's registry rather than on a thread of its own, and the two
# files that are the paper's contribution stay files a reader can hold.
# Any of it growing back fails the gate.
echo "==> narrow wire boundary, reserved frame kinds, file sizes"
if grep -rnE 'fn (publish|dial_peer|sub_open|sub_cancel|sub_lagged|sub_push)\b|set_flight|set_shm|subscribe_local|apply_remote_sub_cancel|apply_remote_sub_push|SpaceMirror|with_mirror|fn hosts_all' crates tests examples; then
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
# A put stages the producer's own array: the staging copy stays deleted.
if grep -rn 'encode_f64s' crates; then
    echo "the put-side staging copy grew back"; exit 1
fi
# A get reads whole aligned cells or fails by name: no byte-copy or
# decoding fallback for a buffer that is not cells.
if grep -rnE 'copy_region_bytes|bytes_of_f64s_mut|decode_f64s|FieldData::from_bytes' crates; then
    echo "a byte-copy or decoding fallback grew back"; exit 1
fi
# One queue: the standard library's channel. And a run owns its joiner
# threads: the service keeps no standing pool beside its engines.
if grep -rnE 'insitu_util::channel|mod channel|pool_worker|struct Assignment|svc-pool' crates; then
    echo "the hand-rolled channel or the standing joiner pool grew back"; exit 1
fi
# Fault injection is stated once, in insitu_fabric::fault: no second
# list of the fault slugs, no copy of the telemetry kind byte, no
# per-frame eligibility table beside the hooks, and every hook of
# `trait FaultHooks` defined once outside the tests (no forwarding
# facade repeating it).
if grep -rnE 'intern_fault_slug|TELEMETRY_FRAME_KIND|fault_eligible|fault_ids' crates tests; then
    echo "a second statement of the fault vocabulary grew back"; exit 1
fi
fault_src=$(sed '/^#\[cfg(test)\]/,$d' crates/fabric/src/fault.rs)
hooks=$(sed -n '/^pub trait FaultHooks/,/^}/p' <<< "$fault_src" | sed -n 's/^    fn \([a-z_]*\).*/\1/p')
[[ -n "$hooks" ]] || { echo "no FaultHooks methods found in fabric/src/fault.rs"; exit 1; }
for hook in $hooks; do
    if [[ $(grep -c "fn $hook(" <<< "$fault_src") -ne 1 ]]; then
        echo "fault hook $hook is defined more than once in fabric/src/fault.rs"; exit 1
    fi
done
# One argument reader for `insitu`: each subcommand reads only its own
# flags, straight into the library's option types. No per-family parse
# loop, no `sub ==` guard, no `no_shm` copy of `shm`, and one executor
# entry point per executor beside `run_*`.
if grep -rnE 'parse_distrib_args|parse_client_args|parse_chaos_args|run_threaded_with|run_modeled_with' \
    crates tests examples; then
    echo "a second parse loop or executor entry point grew back"; exit 1
fi
if grep -rnw 'no_shm' crates/cli/src || grep -nE 'sub (==|!=)' crates/cli/src/main.rs; then
    echo "the CLI re-declares shm or guards flags by subcommand again"; exit 1
fi
# A run's state is its own: each run builds its own hub, joiners and
# spaces, so no key salt keeps runs apart; the hub's greeting is the
# client management and map_scenario the wave engine, so no second
# registry or enactor models either; a subscription sink goes where the
# transport hosts its client.
if grep -rnE 'epoch_salt|key_epoch|run_epoch|key_of\(|ClientRegistry|ClientState|WorkflowEngine|WaveLaunch|launch_next_wave|local_node|workflow\.register_us' \
    crates tests examples; then
    echo "a run key salt, the client registry or the wave enactor grew back"; exit 1
fi
[[ ! -e crates/workflow/src/engine.rs ]]
# Deterministic numbers are diffed, not thresholded: no tolerance gate
# or second baseline format grows back, and a mapping strategy is a
# function named after its label, not an implementation of a trait.
if grep -rnE 'gate_compare|GateOutcome|GateOptions|profile_doc|BundleMapper|"--write-baseline"' \
    crates tests examples; then
    echo "the threshold gate or the mapper trait grew back"; exit 1
fi
[[ ! -e crates/obs/src/gate.rs ]]
# What the program already knows is not restated: launch's process count
# is the mapping's node count plus the server, the watchdog's cadence a
# tenth of its stall window, the partitioner's tuning two constants, the
# engines the scheduler's scoped threads, and per-link-class pull
# statistics one function of the profile, which alone ranks samples.
if grep -rnE 'WatchdogConfig|poll_ms|coarsen_to_per_part|refine_passes|"--procs"' \
    crates tests examples || grep -rn 'engines:' crates/svc; then
    echo "a derived value grew back as an option, a config field or a list"; exit 1
fi
if grep -rn 'percentile(' crates --include=*.rs | grep -v '^crates/obs/src/profile.rs:'; then
    echo "a percentile is computed outside the profile"; exit 1
fi
# The program is what it runs: items that only their own tests called
# are gone with those tests, and inputs every caller set to one value
# are constants (the time model is Jaguar's, every pull's piece is
# staged when the get is issued, the service always reports its runs).
# `gone <pattern> <path>..` fails the gate if any of them grows back.
gone() {
    local pattern=$1
    shift
    if grep -rnE "$pattern" "$@"; then
        echo "a deleted item grew back: $pattern"; exit 1
    fi
}
gone 'split_by_color|total_len|latest_version|round_robin_nodes|Frame::read_from|LinkFaults::new|PartitionConfig::new|\.hull\(|fn hull\b|PoolLease' \
    crates tests examples
# A buffer's pool is its owner's shelf, never process state: no
# `static` of any kind in the recycler.
gone '\bstatic\b' crates/util/src/recycle.rs
gone 'ready_us|ready_at|min_ready|scenario\.model|pub model: NetworkModel|cfg\.verbose|verbose: (true|false)' crates tests examples
gone 'fn (resample|count_above|histogram|merge)\b' crates/core/src/analysis.rs
gone 'fn merge\b' crates/telemetry/src/metrics.rs
gone 'fn (rank|barrier)\b' crates/core/src/comm.rs
gone 'fn (degree|rank_of|core_of|len|submit|render)\b' crates/partition/src/graph.rs \
    crates/workflow/src/groups.rs crates/workflow/src/mappers.rs crates/fabric/src/machine.rs \
    crates/fabric/src/timemodel.rs crates/svc/src/client.rs crates/core/src/mapping.rs
# A transient cell or payload buffer is born and given back through
# `insitu_util::Recycled` alone: outside its tests, a birth-site file
# allocates no zeroed, reserved or copied buffer any other way (not
# even through `on_huge_pages`, the advice on the recycler's miss path
# for a process that keeps `System`; in the `insitu` binary the
# allocator has already placed a large miss), and neither the link nor
# the reactor adopts a decoded payload as a plain `Bytes`
# (`Bytes::from`, called or passed as a function, or `Bytes::from_owner`
# of a bare vector) or as a `Recycled` with no shelf (`Recycled::from`),
# any of which would free it instead of handing it back to the
# reactor's shelf (the reactor writes the payloads the hub relays). (The subscription sink's assembly in
# crates/sub/src/lib.rs is not one of them yet: `insitu-sub` reaching
# `insitu-util` would rewrite benchmark/Cargo.lock; ROADMAP item 4.)
for birth in crates/core/src/exec.rs crates/cods/src/space/ops.rs crates/cods/src/codec.rs \
    crates/net/src/frame.rs crates/net/src/link/mod.rs crates/net/src/reactor.rs; do
    born='vec!\[0(\.0)?;|Vec::with_capacity\(|\.to_vec\(\)|on_huge_pages\('
    [[ $birth == */link/mod.rs || $birth == */reactor.rs ]] && born='Bytes::from([^_a-z]|$)|Bytes::from_owner\([a-z_]+\)|Recycled::from'
    if sed '/^mod tests {/,$d' "$birth" | grep -nE "$born"; then
        echo "$birth allocates or lands a cell or payload buffer outside Recycled"; exit 1
    fi
done
# One allocator places large blocks on huge pages, and only the `insitu`
# binary declares it: a `#[global_allocator]` anywhere else under
# crates/*/src would hand it (or another) to every process that links
# the crate, the benchmark's in-process runs included.
if grep -rnE '^\s*#\[global_allocator\]' crates/*/src | grep -v '^crates/cli/src/main.rs:'; then
    echo "a #[global_allocator] outside crates/cli/src/main.rs"; exit 1
fi
# One file decides which instruction set a kernel runs on: the field
# kernels' dispatch in core/src/exec.rs. Feature detection or a
# feature-enabled function anywhere else under crates/ fails the gate.
if grep -rnE 'target_feature|is_x86_feature_detected' crates | grep -v '^crates/core/src/exec.rs:'; then
    echo "an instruction-set dispatch grew outside the field kernels"; exit 1
fi
long=$(find crates/cods/src crates/net/src -name '*.rs' ! -path crates/net/src/frame.rs \
    -exec wc -l {} + | awk '$2 != "total" && $1 > 1200')
if [[ -n "$long" ]]; then
    echo "$long"; echo "a cods/net source file is over 1200 lines"; exit 1
fi

# The public surface is what another crate uses: a `pub fn` under
# crates/*/src that no other crate, test, example, bin or benchmark/src
# names is `pub(crate)` at most, and once narrowed the compiler reports
# it if nothing in its own crate calls it either; and a `pub fn` that no
# non-test line names runs only under its tests, so it goes with them.
# The check prints its allow-list, each entry with its reason.
echo "==> public surface (every pub fn is named outside its crate and by the program)"
python3 scripts/pub_surface.py

# Modeled regression check: the modeled executor is deterministic, so
# its critical-path profile is diffed byte for byte against the
# checked-in baseline, with no tolerance. Refresh the baseline after an
# intentional model change with:
#   insitu profile workflows/online.dag --config workflows/online.cfg \
#       --modeled --json > workflows/baseline_online.json
echo "==> modeled regression check (vs workflows/baseline_online.json)"
insitu profile workflows/online.dag --config workflows/online.cfg --modeled --json \
    | cmp - workflows/baseline_online.json

# Distributed loopback smoke: 1 in-process server + 2 real joiner
# processes over 127.0.0.1 running the mixed *_cont + *_seq workflow.
# `insitu launch` itself re-runs the workflow single-process and exits
# nonzero unless the merged transfer ledger is byte-identical; the
# merged ledger JSON lands in target/ for the CI workflow to upload.
echo "==> distributed loopback smoke (1 server + 2 joiners over 127.0.0.1)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --ledger-out target/launch-ledger.json \
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
    --strategy round-robin | tee target/launch-shm-report.txt
grep -q "byte-identical to the single-process run" target/launch-shm-report.txt
grep -Eq "^shm: +[1-9][0-9]* shared-memory frame event\(s\), 0 PullData through the hub, 0 fallback\(s\) \(0 ring-full\)" \
    target/launch-shm-report.txt
echo "==> distributed loopback smoke, shared memory disabled (--no-shm)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --strategy round-robin --no-shm | tee target/launch-no-shm-report.txt
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
    --p2p | tee target/launch-p2p-report.txt
grep -q "byte-identical to the single-process run" target/launch-p2p-report.txt
grep -q "p2p:       0 PullData frames through the hub" target/launch-p2p-report.txt
# And with the payloads on the direct sockets (round-robin placement,
# no shared memory): still not one payload byte copied in user space.
echo "==> distributed loopback smoke, p2p data plane on the socket (--p2p --no-shm)"
insitu launch workflows/distrib.dag --config workflows/distrib.cfg \
    --p2p --no-shm --strategy round-robin | tee target/launch-p2p-wire-report.txt
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
    insitu launch workflows/monitor.toml $flags | tee target/launch-sub-$lane-report.txt
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
    --p2p --strategy round-robin \
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
