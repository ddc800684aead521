#!/usr/bin/env bash
# Runs the substrate microbenchmark in report mode and emits a
# machine-readable BENCH_substrate.json (GEMM GFLOP/s naive vs blocked,
# config-pool build wall-clock at 1 vs N threads, sharded vs monolithic
# pool-build wall-clock with the estimated fleet speedup, the async_overlap
# section — sync-barrier vs pipelined eval/train rounds via
# runtime::AsyncEvalPipeline — the study_service section: journal
# append throughput, ask->tell step latency, and the fair-share scheduler's
# concurrent-study trial throughput — the shared_eval_cache section:
# 8-tenant trials/s uncached vs cold vs warm shared evaluation cache with
# hit rates — and the fault_recovery section: journal append throughput
# with and without fsync-on-commit plus recovery latency per journaled
# step count — and, when the network binaries are built, the net_frontend
# section: multi-tenant loadgen ask->tell p50/p99 and frames/s through the
# TCP and Unix-socket front-ends of a live fedtune_studyd) for tracking
# the perf trajectory across PRs.
#
# After writing the snapshot, diffs it against the previous one (newest
# bench/snapshots/BENCH_*.json, or an explicit third argument) and prints
# regressions in the headline series: GEMM GFLOP/s, journal append
# throughput, and ask->tell p99 latency. The diff is informational — perf
# on shared CI runners is too noisy to gate on — but it makes a perf
# regression visible in the PR log instead of three PRs later.
#
# Usage: scripts/bench_report.sh [build_dir] [output.json] [baseline.json]
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_substrate.json}"
baseline="${3:-}"
bin="$build_dir/bench_micro_substrate"

if [[ ! -x "$bin" ]]; then
  echo "error: $bin not found or not executable." >&2
  echo "build it first: cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

"$bin" --substrate_json="$out"

# Network front-end numbers: drive a live daemon with the multi-tenant
# load generator over both transports and fold the results into the
# snapshot as "net_frontend". Skipped (with a note) when the network
# binaries aren't in this build dir.
studyd="$build_dir/fedtune_studyd"
loadgen="$build_dir/fedtune_loadgen"
if [[ -x "$studyd" && -x "$loadgen" ]]; then
  net_tmp="$(mktemp -d)"
  daemon_pid=""
  cleanup_net() {
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
      kill "$daemon_pid" 2>/dev/null || true
      wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$net_tmp"
  }
  trap cleanup_net EXIT

  "$studyd" --tcp 127.0.0.1:0 --port-file "$net_tmp/port.txt" \
    --socket "$net_tmp/studyd.sock" --journal-dir "$net_tmp/journals" \
    --pool-configs 4 2>"$net_tmp/daemon.log" &
  daemon_pid=$!
  for _ in $(seq 1 50); do
    [[ -s "$net_tmp/port.txt" ]] && break
    sleep 0.2
  done
  if [[ -s "$net_tmp/port.txt" ]]; then
    port="$(cat "$net_tmp/port.txt")"
    "$loadgen" --tcp "127.0.0.1:$port" --tenants 64 --studies 2 --trials 4 \
      --mode binary --prefix tcp --json "$net_tmp/tcp.json" >/dev/null
    "$loadgen" --socket "$net_tmp/studyd.sock" --tenants 64 --studies 2 \
      --trials 4 --mode binary --prefix unx --json "$net_tmp/unix.json" \
      >/dev/null
    python3 - "$out" "$net_tmp/tcp.json" "$net_tmp/unix.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f: snap = json.load(f)
with open(sys.argv[2]) as f: tcp = json.load(f)
with open(sys.argv[3]) as f: unx = json.load(f)
snap["net_frontend"] = {"tcp": tcp, "unix": unx}
with open(sys.argv[1], "w") as f:
    json.dump(snap, f, indent=2)
    f.write("\n")
EOF
  else
    echo "warning: daemon never wrote its port file; skipping net_frontend" >&2
    sed 's/^/  daemon: /' "$net_tmp/daemon.log" >&2 || true
  fi
  cleanup_net
  trap - EXIT
  daemon_pid=""
else
  echo "note: $studyd / $loadgen not built; snapshot has no net_frontend section"
fi

# Cluster numbers: a two-member roster with live journal replication.
# Pass 1 measures replication lag under load (fedtune_repl_lag_frames
# quantiles scraped from the primary's metrics). Pass 2 SIGKILLs the
# primary mid-run and reports the loadgen's drop->first-served failover
# latency; retried if the run finishes before the kill lands. Folded into
# the snapshot as "cluster".
ctl="$build_dir/fedtune_ctl"
if [[ -x "$studyd" && -x "$loadgen" && -x "$ctl" ]]; then
  cl_tmp="$(mktemp -d)"
  cl_a=""
  cl_b=""
  cl_port_a=39321
  cl_port_b=39322
  printf 'a 127.0.0.1:%s\nb 127.0.0.1:%s\n' "$cl_port_a" "$cl_port_b" \
    > "$cl_tmp/roster.txt"
  cleanup_cluster() {
    for pid in "$cl_a" "$cl_b"; do
      if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
      fi
    done
    rm -rf "$cl_tmp"
  }
  trap cleanup_cluster EXIT
  start_cluster() {
    rm -rf "$cl_tmp/ja" "$cl_tmp/jb"
    "$studyd" --cluster-file "$cl_tmp/roster.txt" --self a \
      --journal-dir "$cl_tmp/ja" --pool-configs 4 2>>"$cl_tmp/a.log" &
    cl_a=$!
    "$studyd" --cluster-file "$cl_tmp/roster.txt" --self b \
      --journal-dir "$cl_tmp/jb" --pool-configs 4 2>>"$cl_tmp/b.log" &
    cl_b=$!
    sleep 1
  }
  stop_cluster() {
    for pid in "$cl_a" "$cl_b"; do
      if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
      fi
    done
    cl_a=""; cl_b=""
  }

  # Pass 1: replication lag under steady multi-tenant load.
  start_cluster
  "$loadgen" --tcp "127.0.0.1:$cl_port_a" --tenants 4 --studies 50 \
    --trials 8 --mode binary --prefix rl --json "$cl_tmp/repl.json" >/dev/null
  sleep 0.5  # let the replicator drain before scraping
  "$ctl" --tcp "127.0.0.1:$cl_port_a" metrics \
    | grep '^fedtune_repl' > "$cl_tmp/repl_metrics.txt" || true
  stop_cluster

  # Pass 2: failover latency — kill the loadgen's primary mid-run.
  failover_ok=0
  for attempt in 1 2 3; do
    start_cluster
    "$loadgen" --tcp "127.0.0.1:$cl_port_a" --failover "127.0.0.1:$cl_port_b" \
      --tenants 4 --studies 75 --trials 8 --mode binary \
      --prefix "fo${attempt}" --json "$cl_tmp/failover.json" >/dev/null &
    lg_pid=$!
    sleep 0.4
    kill -9 "$cl_a" 2>/dev/null || true
    wait "$cl_a" 2>/dev/null || true
    cl_a=""
    if wait "$lg_pid" && \
       python3 -c 'import json,sys; j=json.load(open(sys.argv[1])); sys.exit(0 if j.get("failovers",0)>=1 else 1)' \
         "$cl_tmp/failover.json"; then
      failover_ok=1
      stop_cluster
      break
    fi
    stop_cluster
  done
  if [[ "$failover_ok" -ne 1 ]]; then
    echo "warning: no failover observed; cluster section has no failover arm" >&2
  fi

  python3 - "$out" "$cl_tmp/repl.json" "$cl_tmp/repl_metrics.txt" \
    "$cl_tmp/failover.json" "$failover_ok" <<'EOF'
import json, sys
with open(sys.argv[1]) as f: snap = json.load(f)
cluster = {}
with open(sys.argv[2]) as f: cluster["repl_load"] = json.load(f)
lag = {}
for line in open(sys.argv[3]):
    line = line.strip()
    if not line or " " not in line: continue
    key, value = line.rsplit(" ", 1)
    try: value = float(value)
    except ValueError: continue
    if key.startswith("fedtune_repl_lag_frames{quantile="):
        q = key.split('"')[1]
        name = {"0.5": "p50", "0.9": "p90", "0.99": "p99"}.get(q)
        if name: lag[name] = value
    elif key in ("fedtune_repl_lag_frames_count", "fedtune_repl_batches_total",
                 "fedtune_repl_frames_total", "fedtune_repl_bytes_total",
                 "fedtune_repl_snapshots_total"):
        lag[key.removeprefix("fedtune_repl_")] = value
cluster["repl_lag_frames"] = lag
if sys.argv[5] == "1":
    with open(sys.argv[4]) as f: fo = json.load(f)
    cluster["failover"] = fo
    cluster["failover_p50_us"] = fo.get("failover_p50_us")
    cluster["failover_p99_us"] = fo.get("failover_p99_us")
snap["cluster"] = cluster
with open(sys.argv[1], "w") as f:
    json.dump(snap, f, indent=2)
    f.write("\n")
EOF
  cleanup_cluster
  trap - EXIT
else
  echo "note: cluster binaries not all built; snapshot has no cluster section"
fi

echo "wrote $out"
cat "$out"

# Pick the newest committed snapshot as the baseline when none was given
# (skipping the snapshot we just wrote, so regenerating BENCH_prN.json in
# place still diffs against pr(N-1)). Newest is by PR number: sort -V puts
# BENCH_pr10 after BENCH_pr9, where a plain sort would not.
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ -z "$baseline" ]]; then
  for cand in $(ls "$repo_root"/bench/snapshots/BENCH_*.json 2>/dev/null | sort -rV); do
    if [[ "$(readlink -f "$cand")" != "$(readlink -f "$out")" ]]; then
      baseline="$cand"
      break
    fi
  done
fi
if [[ -z "$baseline" || ! -f "$baseline" ]]; then
  echo "no baseline snapshot to diff against (bench/snapshots/ is empty)"
  exit 0
fi

echo
echo "=== diff vs $(basename "$baseline") ==="
python3 - "$baseline" "$out" <<'EOF'
import json, sys

with open(sys.argv[1]) as f: base = json.load(f)
with open(sys.argv[2]) as f: cur = json.load(f)

def get(d, *path):
    for k in path:
        if not isinstance(d, dict) or k not in d: return None
        d = d[k]
    return d

def gemm_blocked(d, size):
    for entry in d.get("gemm", []):
        if entry.get("size") == size:
            return entry.get("blocked_gflops")
    return None

# (label, getter, higher_is_better)
SERIES = [
    ("gemm 256 blocked GFLOP/s", lambda d: gemm_blocked(d, 256), True),
    ("journal appends/s",
     lambda d: get(d, "study_service", "journal_appends_per_sec"), True),
    ("ask->tell p99 us",
     lambda d: get(d, "study_service", "ask_tell_p99_us"), False),
    ("ask->tell step us",
     lambda d: get(d, "study_service", "step_latency_us"), False),
    ("scheduler trials/s",
     lambda d: get(d, "study_service", "scheduler_trials_per_sec"), True),
    ("net tcp ask->tell p99 us",
     lambda d: get(d, "net_frontend", "tcp", "ask_tell_p99_us"), False),
    ("net tcp frames/s",
     lambda d: get(d, "net_frontend", "tcp", "frames_per_sec"), True),
    ("cluster repl lag p99 frames",
     lambda d: get(d, "cluster", "repl_lag_frames", "p99"), False),
    ("cluster failover p99 us",
     lambda d: get(d, "cluster", "failover_p99_us"), False),
]

THRESHOLD = 0.10  # flag >10% moves in the bad direction
regressions = 0
for label, getter, higher_better in SERIES:
    b, c = getter(base), getter(cur)
    if b is None or c is None or not b:
        print(f"  {label:28s} (not in both snapshots)")
        continue
    change = (c - b) / abs(b)
    worse = -change if higher_better else change
    tag = ""
    if worse > THRESHOLD:
        tag = "  <-- REGRESSION"
        regressions += 1
    print(f"  {label:28s} {b:12.2f} -> {c:12.2f}  ({change:+.1%}){tag}")

if regressions:
    print(f"{regressions} series regressed >{THRESHOLD:.0%} (informational, not gating)")
EOF
