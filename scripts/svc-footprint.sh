#!/usr/bin/env bash
# Footprint of a live `insitu serve` across a burst of submissions: a
# run must give back what it took, so what the service holds after LAST
# runs is what it held after FIRST. Counts and sizes read from
# /proc/<pid>, no wall clock.
#
# Usage: scripts/svc-footprint.sh INSITU_BIN [FIRST LAST]   (default 20 60)
#
# Prints one census line,
#   svc-footprint: runs=LAST fds=… maps=… rss_shmem_kib=… rss_kib_per_run=…
# and exits nonzero if between the two reads the fd count grew, the
# mapping count grew past allocator jitter, any shared memory is still
# resident when idle, or RSS grew by more than 64 KiB per run.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$1
first=${2:-20}
last=${3:-60}
# glibc caches exited threads' stacks and arenas by peak concurrency, a
# few /proc/<pid>/maps lines either way; the leak this lane exists for
# was 5 lines per run.
map_jitter=16
rss_kib_per_run_max=64

log=$(mktemp)
# One malloc arena: with glibc's default of eight per core, RSS keeps
# creeping for hundreds of runs as short-lived threads warm one arena
# after another (7-62 KiB per run read here, run to run); with one, the
# growth is what the service retains (10-12 KiB per run).
MALLOC_ARENA_MAX=1 "$bin" serve --listen 127.0.0.1:0 --max-runs 2 --pool-nodes 4 > "$log" &
pid=$!
trap 'kill $pid 2>/dev/null || true; rm -f "$log"' EXIT
addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -n 1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "svc-footprint: the service never announced its address"; exit 1; }

status_kib() { awk -v key="$1:" '$1 == key { print $2 }' "/proc/$pid/status"; }

# fds, map lines, RssShmem KiB, VmRSS KiB — once the last run's engine
# and pooled workers have returned to idle.
census() {
    sleep 0.5
    echo "$(ls "/proc/$pid/fd" | wc -l) $(wc -l < "/proc/$pid/maps")" \
        "$(status_kib RssShmem) $(status_kib VmRSS)"
}

for run in $(seq 1 "$last"); do
    "$bin" submit --connect "$addr" benchmark/workflows/coupled3.toml \
        --set n=16 --set iters=24 --set 't_ub=[7,7,7]' --wait > /dev/null
    [[ $run -eq $first ]] && read -r fds0 maps0 _ rss0 <<< "$(census)"
done
read -r fds1 maps1 shmem1 rss1 <<< "$(census)"

per_run=$(( (rss1 - rss0) / (last - first) ))
echo "svc-footprint: runs=$last fds=$fds1 maps=$maps1 rss_shmem_kib=$shmem1 rss_kib_per_run=$per_run" \
    "(after $first runs: fds=$fds0 maps=$maps0 rss_kib=$rss0; now rss_kib=$rss1)"
fail=0
[[ $fds1 -le $fds0 ]] || { echo "svc-footprint: fds grew $fds0 -> $fds1"; fail=1; }
[[ $maps1 -le $((maps0 + map_jitter)) ]] || { echo "svc-footprint: mappings grew $maps0 -> $maps1"; fail=1; }
[[ $shmem1 -eq 0 ]] || { echo "svc-footprint: $shmem1 KiB of shared memory resident while idle"; fail=1; }
[[ $per_run -le $rss_kib_per_run_max ]] || { echo "svc-footprint: RSS grew $per_run KiB per run"; fail=1; }
exit $fail
