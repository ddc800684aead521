#!/usr/bin/env python3
"""fedtune benchmark: one command per workload, every metric by name and unit.

    python3 perfbench/run.py --workload figure-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the root of a fedtune checkout. The first run builds the library,
the daemon and the benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); working files go to .bench_work.

Workloads (why each was chosen: BENCHMARK.json; metric meanings: README.md):
  figure-cold  Fig. 3 from an empty pool cache: four 128-config pool builds
               and the subsampling bootstrap.
  figure-warm  Figs. 1, 6, 8, 9 and 16 from cached pools.
  serve-pair   open-loop ask/tell/status traffic against a two-member
               fedtune_studyd roster (primary + replicating follower).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
with per-layer timing and prints the per-layer metrics (plus the tracing
overhead against the last untraced run of that workload in this checkout).
The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""
import argparse
import atexit
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import benchlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
PERFBENCH = os.path.join(BUILD, "perfbench")
STUDYD = os.path.join(BUILD, "fedtune", "fedtune_studyd")

WORKLOADS = ("figure-cold", "figure-warm", "serve-pair")

# serve-pair phases (the traffic mix itself is fixed in serve_gen.cpp).
# The reference rate (trials/s; the status reads come on top) is an
# assumed moderate load, a fifth to a third of the ladder's top rate on
# the 4-vCPU host the benchmark was tuned on; its p99s are the median of
# ref_windows per-window p99s. The ladder climbs in 12% steps until a rate
# misses the limit (benchlib.step_verdict). A step is invalid if the
# generator's p99 lateness or the backlog growth exceeds these limits.
# wall_s comes from `bursts` closed-loop bursts of burst_trials trials,
# each on its own pair; cpu_s is the daemons' CPU over the reference step.
SERVE = {
    "ref_rate": 1000,
    "ref_windows": 5,
    "ladder": [1000 * 1.12 ** i for i in range(5, 22)],
    "limit_ms": 25.0,
    "late_limit_ms": 5.0,
    "backlog_frac": 0.01,
    "backlog_min": 20,
    "warmup_s": 1.0,
    "bursts": 4,
    "burst_trials": 10240,  # 5 whole studies on each of the 128 slots
}
# On a 4-CPU host each serve-pair process gets its own CPUs (the primary
# two: event loop and replication thread), so they queue on each other
# only through the protocol.
SERVE_CPUS = {"gen": {0}, "a": {1, 2}, "b": {3}}
# serve-pair's metrics besides the gated end-to-end ones, too bound to the
# host's scheduling noise to gate (see README.md).
UNGATED = (("trial_p50_ms", "ms"), ("trial_p99_ms", "ms"), ("read_p99_ms", "ms"),
           ("max_rate_tps", "trials/s"))
SETUPS = 9  # figure workloads measure set-up this many times a run

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# Which end-to-end metric (and workload) each per-layer metric should move.
LAYER_TARGET = {
    "data.": "wall_s (figure-cold)",
    "core.pool_build_s": "wall_s (figure-cold)",
    "core.config_train_s": "wall_s (figure-cold)",
    "core.pool_save_s": "wall_s (figure-cold)",
    "core.pool_load_s": "setup_s (figure-warm)",
    "core.run_trial_us": "wall_s (figure-warm)",
    "core.evals": "wall_s (figure-warm)",
    "fl.": "wall_s, cpu_s (figure-cold)",
    "tensor.": "cpu_s (figure-cold)",
    "common.": "wall_s (figure-cold)",
    "sim.": "wall_s (figure-warm)",
    "hpo.": "wall_s (figure-warm)",
    "net.rtt_us": "trial_p99_ms (serve-pair)",
    "net.loop_cpu_ratio": "max_rate_tps, wall_s (serve-pair)",
    "service.handle_us": "trial_p99_ms, read_p99_ms (serve-pair)",
    "service.journal_append_us": "max_rate_tps, wall_s (serve-pair)",
    "cluster.repl_lag_frames_p99": "trial_p99_ms (serve-pair)",
    "cluster.": "max_rate_tps, wall_s (serve-pair)",
    "serve.": "validity check of serve-pair rate steps",
}


def layer_target(name):
    best = ""
    for prefix in LAYER_TARGET:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYER_TARGET.get(best, "?")


# --------------------------------------------------------------- processes --

_children = []


def _reap_all():
    for p in _children:
        if p.poll() is None:
            p.terminate()
    deadline = time.monotonic() + 5
    for p in _children:
        try:
            p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    _children.clear()


def _on_signal(signum, _frame):
    _reap_all()
    sys.exit(128 + signum)


atexit.register(_reap_all)
signal.signal(signal.SIGTERM, _on_signal)
signal.signal(signal.SIGINT, _on_signal)


def spawn(cmd, env=None, log=None, cpus=None, stdin=False):
    """Starts a child with stdout (and, if asked, stdin) piped; it is killed
    if this process exits. `cpus` pins it to those CPUs when the host has
    them all."""
    pin = None
    if cpus and set(cpus) <= os.sched_getaffinity(0):
        pin = lambda: os.sched_setaffinity(0, cpus)
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log or subprocess.DEVNULL,
                         stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                         env=env, cwd=ROOT, text=True, preexec_fn=pin)
    _children.append(p)
    return p


def reap(p):
    """Waits for a child and returns (returncode, rusage)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(p)
    return p.returncode, ru


class BenchError(Exception):
    pass


def run_tool(args, env=None, want_ready=False, cpus=None):
    """Runs a perfbench subcommand to completion. Returns (setup_s, rusage):
    setup_s is spawn -> READY line when want_ready, else None."""
    with open(os.path.join(WORK, "child.log"), "a") as log:
        log.write("$ " + " ".join(args) + "\n")
        log.flush()
        t0 = time.monotonic()
        p = spawn([PERFBENCH] + args, env=env, log=log, cpus=cpus)
        setup = None
        if want_ready:
            line = p.stdout.readline()
            setup = time.monotonic() - t0
            if line.strip() != "READY":
                reap(p)
                raise BenchError("%s did not become ready" % args[0])
        p.stdout.read()
        rc, ru = reap(p)
    if rc != 0:
        raise BenchError("perfbench %s exited %d (see .bench_work/child.log)" % (args[0], rc))
    return setup, ru


def fresh_dir(*parts):
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------- build --

def build():
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and os.path.isdir(src)):
        raise BenchError("no fedtune source tree at %s" % ROOT)
    os.makedirs(WORK, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
                  "fedtune_studyd"])
    with open(os.path.join(WORK, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                raise BenchError("build failed: %s (see .bench_work/build.log)" % " ".join(cmd))


# -------------------------------------------------------------- host stamp --

def source_digest():
    """SHA-256 over the library/tool sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_stamp():
    info = json.loads(subprocess.run([PERFBENCH, "build-info"], capture_output=True,
                                     text=True, check=True).stdout)
    try:
        with open("/proc/cpuinfo") as f:
            cpuinfo = f.read()
    except OSError:
        cpuinfo = ""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None  # no git on this host
    return {
        "cpu_model": benchlib.cpu_model(cpuinfo),
        "cpu_flags": benchlib.cpu_flags(cpuinfo),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info["compiler"],
        "flags": " ".join(info["flags"].split()),
        "build_type": info["build_type"],
        "git_sha": sha,
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------- workloads --

class Result:
    """Accumulates metrics, output checks and report lines for one run."""

    def __init__(self, workload, stamp):
        self.workload = workload
        self.stamp = stamp
        self.metrics = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.lines.append("check %-44s %s %s" % (what, "ok" if ok else "FAILED", detail))

    def ops(self, attempted, failed):
        self.attempted += int(attempted)
        self.failed += int(failed)

    def timing(self, label, values, unit, scale=1.0):
        s = benchlib.summarize(values)
        if s["n"] == 0:
            self.lines.append("%-34s no samples" % label)
            return
        text = "%-34s p50 %.4g %s" % (label, s["p50"] * scale, unit)
        if "tail" in s:
            text += ", p%g %.4g %s (%d beyond)" % (s["tail_p"], s["tail"] * scale, unit,
                                                    s["tail_beyond"])
        self.lines.append(text + ", n=%d" % s["n"])


def check_pools(res, cache):
    """Pool digest checks against the digests recorded for this host."""
    expected = benchlib.recorded_pool_digests(res.stamp)
    if expected is None:
        res.lines.append("pool sha256: digest unrecorded for this host (%s)" % ", ".join(
            "%s %s" % (n, d[:16]) for n, d in sorted(benchlib.pool_digests(cache).items())))
        return
    for name, ok, detail in benchlib.check_pool_digests(cache, expected):
        res.check("pool sha256 %s" % name, ok, detail)


def figure_cold(res, seed, seconds, trace):
    base = fresh_dir("cold")
    cache = fresh_dir("cold", "cache")
    env = dict(os.environ, FEDTUNE_CACHE_DIR=cache)
    setups = [run_tool(["figure-cold", "--ready-only"], env=env, want_ready=True)[0]
              for _ in range(SETUPS - 1)]
    results = os.path.join(base, "results")
    args = ["figure-cold", "--out", os.path.join(base, "cold.json"), "--results", results,
            "--seed", str(seed)] + (["--trace"] if trace else [])
    setup, ru = run_tool(args, env=env, want_ready=True)
    setups.append(setup)
    d = load_json(os.path.join(base, "cold.json"))
    res.metrics.update(setup_s=statistics.median(setups), wall_s=d["wall_s"],
                       cpu_s=d["cpu_s"], peak_rss_mb=ru.ru_maxrss / 1024.0)

    check_pools(res, cache)
    rerun = os.path.join(base, "rerun")
    run_tool(["figure-cold", "--out", os.path.join(base, "rerun.json"), "--results", rerun,
              "--seed", str(seed)], env=env)
    same = benchlib.compare_trees(results, rerun)
    res.check("fig3 CSVs byte-equal to warm rerun (%d files)" % len(same),
              len(same) == 4 and all(eq for _, eq in same))
    if res.failed == 0:
        # Leave verified pools behind for figure-warm, with their digests.
        pools = os.path.join(WORK, "pools")
        shutil.rmtree(pools, ignore_errors=True)
        shutil.copytree(cache, pools)
        with open(os.path.join(pools, "digests.json"), "w") as f:
            json.dump(benchlib.pool_digests(pools), f)
    if trace:
        L = d["layers"]
        s = d["samples"]
        res.layers.update(L)
        res.layers["core.config_train_s_p50"] = benchlib.percentile(s["core.config_train_s"], 50)
        res.layers["core.config_train_s_max"] = max(s["core.config_train_s"])
        res.layers["fl.round_ms"] = benchlib.percentile(s["fl.round_ms"], 50)
        res.layers["fl.eval_ms"] = benchlib.percentile(s["fl.eval_ms"], 50)
        res.timing("config training (build_shard)", s["core.config_train_s"], "s")


def ensure_pools(stamp):
    """Pools for figure-warm: the ones a passing figure-cold left (still
    matching the digests it wrote down, and the recorded ones if this host
    has them), or built now (untimed) when this checkout has none."""
    pools = os.path.join(WORK, "pools")
    try:
        left = load_json(os.path.join(pools, "digests.json"))
    except (OSError, ValueError):
        left = None
    expected = benchlib.recorded_pool_digests(stamp)
    if (left and len(left) == len(benchlib.POOL_NAMES) and left == benchlib.pool_digests(pools)
            and expected in (None, left)):
        return pools
    shutil.rmtree(pools, ignore_errors=True)
    os.makedirs(pools)
    run_tool(["figure-cold", "--out", os.path.join(WORK, "prep.json"), "--results",
              fresh_dir("prep-results"), "--seed", "1"],
             env=dict(os.environ, FEDTUNE_CACHE_DIR=pools))
    with open(os.path.join(pools, "digests.json"), "w") as f:
        json.dump(benchlib.pool_digests(pools), f)
    return pools


def figure_warm(res, seed, seconds, trace):
    pools = ensure_pools(res.stamp)
    check_pools(res, pools)
    env = dict(os.environ, FEDTUNE_CACHE_DIR=pools)
    reps = max(2, int(seconds // 10))
    setups, walls, cpus, rss, dirs, docs = [], [], [], [], [], []
    for i in range(reps):
        out = os.path.join(WORK, "warm%d.json" % i)
        dirs.append(fresh_dir("warm-results%d" % i))
        setup, ru = run_tool(["figure-warm", "--out", out, "--results", dirs[-1],
                              "--seed", str(seed)] + (["--trace"] if trace else []),
                             env=env, want_ready=True)
        d = load_json(out)
        docs.append(d)
        setups.append(setup)
        walls.append(d["wall_s"])
        cpus.append(d["cpu_s"])
        rss.append(ru.ru_maxrss / 1024.0)
    while len(setups) < SETUPS:
        setups.append(run_tool(["figure-warm", "--ready-only"], env=env, want_ready=True)[0])
    res.metrics.update(setup_s=statistics.median(setups), wall_s=statistics.median(walls),
                       cpu_s=statistics.median(cpus), peak_rss_mb=max(rss))
    res.lines.append("figure reproductions: %d, wall %s s" % (reps, ", ".join(
        "%.3f" % w for w in walls)))
    for i in range(1, reps):
        same = benchlib.compare_trees(dirs[0], dirs[i])
        res.check("warm CSVs byte-identical, rep 1 vs %d (%d files)" % (i + 1, len(same)),
                  len(same) == 14 and all(eq for _, eq in same))
    if trace:
        for key in docs[0]["layers"]:
            res.layers[key] = statistics.median(d["layers"][key] for d in docs)
        s = docs[-1]["samples"]
        for key in ("hpo.ask_us", "hpo.tell_us", "core.run_trial_us"):
            res.layers[key] = statistics.fmean(s[key])


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_pair(trace, tag):
    """Starts primary `a` and follower `b` on a fresh roster; returns
    (procs, set-up seconds until both ports are bound, roster path, pair dir)."""
    base = fresh_dir("serve", tag)
    roster = os.path.join(base, "roster")
    with open(roster, "w") as f:
        f.write("a 127.0.0.1:%d\nb 127.0.0.1:%d\n" % (free_port(), free_port()))
    log_path = os.path.join(base, "daemons.log")
    procs = {}
    t0 = time.monotonic()
    with open(log_path, "w") as logs:  # the daemons keep their own copies
        for member in ("a", "b"):
            common = ["--cluster-file", roster, "--self", member, "--journal-dir",
                      os.path.join(base, member), "--port-file",
                      os.path.join(base, member + ".port"), "--max-studies", "1024"]
            if member == "a" and trace:
                cmd = [PERFBENCH, "serve-host", "--out", os.path.join(base, "host.json")] + common
            else:
                cmd = [STUDYD] + common
            procs[member] = spawn(cmd, log=logs, cpus=SERVE_CPUS[member])
    while not all(os.path.isfile(os.path.join(base, m + ".port")) for m in procs):
        if any(p.poll() is not None for p in procs.values()):
            raise BenchError("a daemon exited during start-up (see %s)" % log_path)
        if time.monotonic() - t0 > 60:
            raise BenchError("daemons did not bind within 60 s")
        time.sleep(0.002)
    return procs, time.monotonic() - t0, roster, base


def stop_pair(procs):
    rusages = {}
    for p in procs.values():
        p.send_signal(signal.SIGTERM)
    for m, p in procs.items():
        rc, ru = reap(p)
        rusages[m] = (rc, ru)
    return rusages


def proc_cpu_s(pid):
    """CPU seconds a process has run, summed over its threads from
    /proc/<pid>/task/*/schedstat (nanosecond run time, not tick samples)."""
    ns = 0
    task = "/proc/%d/task" % pid
    for t in os.listdir(task):
        try:
            with open(os.path.join(task, t, "schedstat")) as f:
                ns += int(f.read().split()[0])
        except OSError:
            pass  # the thread just exited
    return ns * 1e-9


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid %d" % pid)


def serve_phase(res, trace, tag, seed, body):
    """Starts a fresh pair and a `perfbench serve-gen` against it, runs
    body(call, procs) (call sends one generator command and returns its
    JSON answer; see serve_gen.cpp), ends the generator and stops the pair.
    Returns (set-up seconds, body's result, generator summary, pair dir)."""
    procs, setup, roster, base = start_pair(trace, tag)
    with open(os.path.join(WORK, "child.log"), "a") as log:
        gen = spawn([PERFBENCH, "serve-gen", "--roster", roster, "--primary", "a",
                     "--seed", str(seed)], log=log, cpus=SERVE_CPUS["gen"], stdin=True)

        def call(cmd):
            try:
                gen.stdin.write(cmd + "\n")
                gen.stdin.flush()
            except BrokenPipeError:
                pass  # reported below: no answer
            line = gen.stdout.readline()
            if not line:
                raise BenchError("serve-gen stopped at %r (see .bench_work/child.log)" % cmd)
            return json.loads(line)

        try:
            out = body(call, procs)
            summary = call("end")
            if reap(gen)[0] != 0:
                raise BenchError("serve-gen failed (see .bench_work/child.log)")
        finally:
            stopped = stop_pair(procs)
    res.ops(summary["attempted"], summary["failed"])
    for m, (rc, _) in stopped.items():
        res.check("%s: daemon %s clean shutdown" % (tag, m), rc == 0, "rc=%d" % rc)
    res.check("%s: every finished study's best == min told (%d studies)"
              % (tag, summary["best_checked"]), summary["best_checked"] > 0)
    return setup, out, summary, base


def serve_pair(res, seed, seconds, trace):
    """Each phase runs on its own freshly started pair (the daemons' cost
    per request grows with every study they have seen, so no phase may
    inherit another's history): the reference step, the ladder, and the
    closed-loop bursts. Every pair start is one set-up sample."""
    S = SERVE
    ref_s = 0.3 * seconds
    warmup = "step warmup %g %g" % (S["ref_rate"], S["warmup_s"])

    def integ(st):
        return benchlib.step_integrity(st, S["late_limit_ms"], S["backlog_frac"],
                                       S["backlog_min"])

    def reference(call, procs):
        call(warmup)
        cpu0 = [proc_cpu_s(p.pid) for p in procs.values()]
        st = call("step reference %g %.3f" % (S["ref_rate"], ref_s))
        cpu = [proc_cpu_s(p.pid) - c for p, c in zip(procs.values(), cpu0)]
        return st, cpu, sum(peak_rss_kb(p.pid) for p in procs.values()) / 1024.0

    def ladder(call, procs):
        call(warmup)
        steps = []
        for rate in S["ladder"]:
            for _ in range(3):  # a late step is inconclusive: retried
                steps.append(call("step ladder %.0f %.3f" % (rate, 0.04 * seconds)))
                verdict = benchlib.step_verdict(steps[-1], S["limit_ms"], integ)
                if verdict != "late":
                    break
            if verdict != "pass":
                break
        return steps

    def burst(call, procs):
        return call("burst %d" % S["burst_trials"])

    setups = []
    setup, (ref, ref_cpu, rss), g, ref_base = serve_phase(res, trace, "reference", seed,
                                                          reference)
    setups.append(setup)
    setup, ladder_steps, _, _ = serve_phase(res, trace, "ladder", seed, ladder)
    setups.append(setup)
    walls = []
    for i in range(S["bursts"]):
        setup, st, _, _ = serve_phase(res, trace, "burst%d" % (i + 1), seed, burst)
        setups.append(setup)
        res.check("burst%d: all %d trials served" % (i + 1, S["burst_trials"]),
                  st["failed"] == 0 and st["trials"] == S["burst_trials"])
        walls.append(st["wall_s"])
    res.lines.append("closed-loop bursts of %d trials: wall %s s" % (
        S["burst_trials"], ", ".join("%.3f" % w for w in walls)))

    for st in [ref] + ladder_steps:
        late_ok, backlog_ok, late, growth, why = integ(st)
        p99 = benchlib.percentile(st["trial_ms"], 99) if st["trial_ms"] else math.inf
        res.lines.append("step %-9s %7.0f trials/s: trial p99 %8.3f ms, late p99 %.3f ms, "
                         "backlog %+d, failed %d -> %s" % (
                             st["name"], st["rate"], p99, late, growth, st["failed"],
                             "valid" if late_ok and backlog_ok
                             else "INVALID (" + "; ".join(why) + ")"))
    trial_p99, trial_w = benchlib.windowed_p99(ref["trial_ms"], ref["trial_t"],
                                               S["ref_windows"], ref_s)
    read_p99, read_w = benchlib.windowed_p99(ref["read_ms"], ref["read_t"],
                                             S["ref_windows"], ref_s)
    res.lines.append("reference p99 per window: trial %s ms, read %s ms" % (
        ", ".join("%.3f" % v for v, _ in trial_w), ", ".join("%.3f" % v for v, _ in read_w)))
    res.check("every reference window has >= 10 samples beyond p99",
              len(trial_w) == len(read_w) == S["ref_windows"] and
              min(n for _, n in trial_w + read_w) >= benchlib.samples_for(99))
    res.timing("trial (ask -> tell ack, intended)", ref["trial_ms"], "ms")
    res.timing("read (status, intended)", ref["read_ms"], "ms")
    res.metrics.update(
        setup_s=statistics.median(setups),
        trial_p50_ms=benchlib.percentile(ref["trial_ms"], 50),
        trial_p99_ms=trial_p99,
        read_p99_ms=read_p99,
        max_rate_tps=benchlib.max_rate(ladder_steps, S["limit_ms"], integ),
        wall_s=statistics.median(walls),
        cpu_s=sum(ref_cpu),
        peak_rss_mb=rss)
    if trace:
        t0, t1 = ref["t0"], ref["t0"] + ref["wall_s"]
        for verb, us in ref["rtt_us"].items():
            res.layers["net.rtt_us." + verb] = benchlib.percentile(us, 99)
        res.layers["net.loop_cpu_ratio"] = ref_cpu[0] / ref["wall_s"]
        host = load_json(os.path.join(ref_base, "host.json"))
        hb = host["base"]

        def window(series):
            return [u for t, u in zip(series["t"], series["us"]) if t0 <= hb + t <= t1]

        for verb, series in host["handle_us"].items():
            w = window(series)
            if w:
                res.layers["service.handle_us." + verb] = benchlib.percentile(w, 99)
        w = window(host["on_mutation_us"])
        res.layers["cluster.on_mutation_us"] = statistics.fmean(w) if w else 0.0
        m = g["primary_metrics"]
        n = benchlib.prom_value(m, "fedtune_journal_append_seconds_count") or 0
        res.layers["service.journal_append_us"] = (
            1e6 * benchlib.prom_value(m, "fedtune_journal_append_seconds_sum") / n if n else 0)
        res.layers["cluster.repl_bytes_per_tell"] = (
            (benchlib.prom_value(m, "fedtune_repl_bytes_total") or 0) / max(1, g["tells_acked"]))
        res.layers["cluster.snapshots_per_study"] = (
            (benchlib.prom_value(m, "fedtune_repl_snapshots_sent_total") or 0)
            / max(1, g["studies_created"]))
        res.layers["cluster.repl_lag_frames_p99"] = (
            benchlib.prom_value(m, "fedtune_repl_lag_frames", 'quantile="0.99"') or 0)
        res.layers["serve.gen_late_ms_p99"] = benchlib.percentile(ref["late_ms"], 99)


RUNNERS = {"figure-cold": figure_cold, "figure-warm": figure_warm, "serve-pair": serve_pair}


# ------------------------------------------------------------------ output --

def metric_block(specs, values):
    return {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
            for s in specs}


def report(res, args, stamp):
    print("fedtune benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: %s" % json.dumps(stamp, sort_keys=True))
    for line in res.lines:
        print("  " + line)
    ratio = res.failed / max(1, res.attempted)
    print("end-to-end%s:" % (" (traced run)" if args.trace else ""))
    for s in SPEC["end_to_end"]:
        print("  %-16s %14.6g %-8s (%s is better, bound %g)" % (
            s["name"], res.metrics.get(s["name"], 0.0), s["unit"], s["better"], s["bound"]))
    print("  %-16s %14.6g %-8s (%d failed of %d ops and checks)"
          % ("fail_ratio", ratio, "ratio", res.failed, res.attempted))
    if args.workload == "serve-pair":
        print("reported, not gated (host-noise-bound, see perfbench/README.md):")
        for name, unit in UNGATED:
            print("  %-16s %14.6g %-8s" % (name, res.metrics[name], unit))
    if args.trace:
        print("per-layer (0 = layer bypassed by this workload):")
        for s in SPEC["per_layer"]:
            print("  %-36s %14.6g %-9s -> %s" % (s["name"], res.layers.get(s["name"], 0.0),
                                                 s["unit"], layer_target(s["name"])))


def trace_overhead(res, workload):
    path = os.path.join(WORK, "results", "%s-trace0.json" % workload)
    if not os.path.isfile(path):
        print("tracing overhead: no untraced %s result in this checkout yet" % workload)
        return
    base = load_json(path)["metrics"]
    print("tracing overhead (traced - untraced, last untraced run of %s):" % workload)
    for s in SPEC["end_to_end"]:
        if s["name"] not in base:
            continue
        a, b = base[s["name"]]["value"], res.metrics.get(s["name"], 0.0)
        print("  %-16s %+14.6g %-8s (%+.1f%%)" % (s["name"], b - a, s["unit"],
                                                 100.0 * (b - a) / a if a else math.inf))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result (with host stamp) here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --out results instead of running")
    args = ap.parse_args()
    if args.compare:
        a, b = (load_json(p) for p in args.compare)
        for line in benchlib.compare_results(a, b, SPEC["end_to_end"]):
            print(line)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    try:
        build()
        stamp = host_stamp()
        res = Result(args.workload, stamp)
        RUNNERS[args.workload](res, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    report(res, args, stamp)
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values = res.layers if args.trace else res.metrics
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": stamp,
            "metrics": metric_block(SPEC["end_to_end"] + [
                {"name": n, "unit": u} for n, u in UNGATED if n in res.metrics], res.metrics),
            "layers": metric_block(SPEC["per_layer"], res.layers),
            "attempted": res.attempted, "failed": res.failed}
    if args.trace:
        trace_overhead(res, args.workload)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for path in [os.path.join(WORK, "results", "%s-trace%d.json" % (args.workload, args.trace))
                 ] + ([args.out] if args.out else []):
        with open(path, "w") as f:
            json.dump(full, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metric_block(specs, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
