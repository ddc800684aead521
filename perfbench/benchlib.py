"""Statistics, output checks and host stamps for the fedtune benchmark.

Everything here is pure and unit-tested (test_benchlib.py); run.py does
the process management around it.
"""
import hashlib
import math
import os
import re
import statistics

# Pool files are the determinism contract: at the paper's pool seeds a
# ConfigPool build reproduces the same bytes run after run. The library is
# compiled with -march=native, so its float results, and with them the
# bytes, may differ between CPUs or compilers. Digests (SHA-256) are
# therefore recorded per host (the stamp fields in DIGEST_KEYS); a host
# with none recorded has only the host-independent checks.
DIGEST_KEYS = ("cpu_model", "cpu_flags", "compiler", "flags")
POOL_SHA256 = [
    ({"cpu_model": "Intel(R) Xeon(R) Processor", "cpu_flags": "86d9ce9c09e486e0",
      "compiler": "gcc 12.2.0",
      "flags": "-O3 -DNDEBUG -Wall -Wextra -march=native -fopenmp-simd"},
     {"cifar10-like": "7eb170346fe671c8d39d9a62aab3f4c606efa8db23224929e9c43dd9d0d8ba90",
      "femnist-like": "ccdfac07e4595e9a4e80eebfbf18d5bd62be831edee7b4494839fa94cf8ac9d5",
      "stackoverflow-like": "72d62e582df947a5a36bd1f199780aebe2b12b05c9d629c8c58d446339ce6309",
      "reddit-like": "ef0119b8330c687701b52731dfa1044f79275dabb648119d1275745234d2153c"}),
]
POOL_NAMES = ("cifar10-like", "femnist-like", "stackoverflow-like", "reddit-like")

# Percentiles the report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10  # a quoted percentile needs this many samples above it


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. inf samples (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # Rounded before the ceiling so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest quotable percentile for n samples: the largest in PERCENTILES
    with at least MIN_BEYOND samples beyond it (None if not even p50)."""
    best = None
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def summarize(values):
    """Median plus the highest percentile with >= MIN_BEYOND samples beyond
    it, with the sample count: the form every timing is reported in."""
    n = len(values)
    out = {"n": n}
    if n == 0:
        return out
    out["p50"] = percentile(values, 50.0)
    tail = tail_percentile(n)
    if tail is not None and tail > 50.0:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
        out["tail_beyond"] = beyond(n, tail)
    return out


def step_integrity(step, late_limit_ms, backlog_limit_frac, backlog_limit_min):
    """Open-loop validity of one rate step: the generator may not run late
    (p99 lateness) and the backlog may not grow from mid-step to step end.
    Returns (late_ok, backlog_ok, late_p99_ms, backlog_growth, reasons)."""
    late = percentile(step["late_ms"], 99.0) if step["late_ms"] else 0.0
    growth = step["backlog_end"] - step["backlog_mid"]
    limit = max(backlog_limit_min, backlog_limit_frac * step["trials"])
    reasons = []
    if late > late_limit_ms:
        reasons.append("generator late p99 %.3f ms > %.3f" % (late, late_limit_ms))
    if growth > limit:
        reasons.append("backlog grew by %d > %d" % (growth, limit))
    return (late <= late_limit_ms, growth <= limit, late, growth, reasons)


def step_verdict(step, limit_ms, integrity):
    """The one rule a ladder step is judged by: "late" when the generator
    ran late (the step proves nothing either way), "pass" when trial p99
    <= limit_ms with no failed ops and no growing backlog, else "miss"."""
    late_ok, backlog_ok = integrity(step)[:2]
    if not late_ok:
        return "late"
    p99 = percentile(step["trial_ms"], 99.0) if step["trial_ms"] else math.inf
    return "pass" if backlog_ok and step["failed"] == 0 and p99 <= limit_ms else "miss"


def max_rate(steps, limit_ms, integrity):
    """Highest ladder rate that passes (step_verdict), walking up the ladder
    until the first rate that does not. Steps come in run order and a rate
    is judged by its last attempt, so a late attempt can be retried; a rate
    with only late attempts ends the walk unresolved. When the first miss
    is failure-free and missed on p99, the rate is refined by log-linear
    interpolation of p99 between the last passing step and the miss toward
    the limit, so the result is not quantized to the ladder. 0.0 if the
    lowest rate already misses."""
    last = {}
    for step in steps:
        last[step["rate"]] = step
    last_ok = None
    for rate in sorted(last):
        step = last[rate]
        verdict = step_verdict(step, limit_ms, integrity)
        p99 = percentile(step["trial_ms"], 99.0) if step["trial_ms"] else math.inf
        if verdict == "pass":
            last_ok = (rate, p99)
            continue
        if last_ok is None:
            return 0.0
        rate_ok, p99_ok = last_ok
        if (verdict == "late" or step["failed"] or not math.isfinite(p99) or p99 <= limit_ms
                or p99_ok <= 0):
            return float(rate_ok)
        frac = (math.log(limit_ms) - math.log(p99_ok)) / (math.log(p99) - math.log(p99_ok))
        return rate_ok + (rate - rate_ok) * min(1.0, max(0.0, frac))
    return float(last_ok[0]) if last_ok else 0.0


def windowed_p99(values, times, windows, span):
    """Median over `windows` equal slices of [0, span) (by intended time) of
    each slice's p99, and the (p99, sample count) of every slice: a tail
    latency that a host stall in a minority of slices cannot move, while
    anything recurring in most slices still shows."""
    per = []
    for w in range(windows):
        lo, hi = span * w / windows, span * (w + 1) / windows
        sl = [v for v, t in zip(values, times) if lo <= t < hi]
        if sl:
            per.append((percentile(sl, 99.0), len(sl)))
    return statistics.median(p for p, _ in per), per


def samples_for(p):
    """Fewest samples whose nearest-rank p-th percentile has MIN_BEYOND
    samples beyond it."""
    n = 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def recorded_pool_digests(stamp, table=POOL_SHA256):
    """The pool digests recorded for this host stamp, or None."""
    for host, digests in table:
        if all(stamp.get(k) == host[k] for k in DIGEST_KEYS):
            return digests
    return None


def pool_digests(cache_dir):
    """{name: SHA-256} of the paper pools present under cache_dir."""
    return {n: file_sha256(os.path.join(cache_dir, n + ".pool")) for n in POOL_NAMES
            if os.path.isfile(os.path.join(cache_dir, n + ".pool"))}


def check_pool_digests(cache_dir, expected):
    """Compares every expected pool file under cache_dir with its digest.
    Returns a list of (name, ok, detail) for each expected pool."""
    results = []
    for name, want in sorted(expected.items()):
        path = os.path.join(cache_dir, name + ".pool")
        if not os.path.isfile(path):
            results.append((name, False, "missing"))
            continue
        got = file_sha256(path)
        results.append((name, got == want, got[:16] if got != want else "ok"))
    return results


def compare_trees(dir_a, dir_b):
    """Byte-compares the CSV files of two result directories. Returns a
    list of (file, equal) over the union of their CSVs."""
    names = sorted(
        set(n for n in os.listdir(dir_a) if n.endswith(".csv"))
        | set(n for n in os.listdir(dir_b) if n.endswith(".csv")))
    out = []
    for n in names:
        pa, pb = os.path.join(dir_a, n), os.path.join(dir_b, n)
        equal = os.path.isfile(pa) and os.path.isfile(pb)
        if equal:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                equal = fa.read() == fb.read()
        out.append((n, equal))
    return out


def prom_value(text, name, labels=None):
    """Value of one series in Prometheus exposition text (None if absent)."""
    want = name + ("{" + labels + "}" if labels else "")
    for line in text.splitlines():
        if line.startswith(want + " "):
            return float(line[len(want) + 1:])
    return None


# Host fields that make two results comparable. The source/git identity is
# what a comparison compares, so it is stamped but not matched.
HOST_KEYS = ("cpu_model", "cpu_flags", "nproc", "compiler", "flags", "build_type")


def comparable(stamp_a, stamp_b):
    """(True, []) when both results come from the same host and build
    configuration; otherwise (False, differing fields)."""
    diff = [k for k in HOST_KEYS if stamp_a.get(k) != stamp_b.get(k)]
    return (not diff, diff)


def compare_results(a, b, metric_specs):
    """Lines comparing result b against baseline a, one per metric. Results
    from different host stamps are never diffed."""
    ok, diff = comparable(a["host"], b["host"])
    if not ok:
        return ["cross-host, not comparable (differs in: %s)" % ", ".join(diff)]
    if a.get("workload") != b.get("workload"):
        return ["different workloads (%s vs %s), not comparable"
                % (a.get("workload"), b.get("workload"))]
    lines = []
    for spec in metric_specs:
        name = spec["name"]
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        if va is None or vb is None:
            continue
        delta = (vb - va) / va if va else math.inf
        lines.append("%-32s %14.6g -> %14.6g %+8.2f%% (%s is better)"
                     % (name, va, vb, 100.0 * delta, spec["better"]))
    return lines


def cpu_model(cpuinfo_text):
    m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo_text, re.M)
    return m.group(1).strip() if m else "unknown"


def cpu_flags(cpuinfo_text):
    """Short digest of the CPU feature flags: what -march=native builds for,
    and not always implied by the model name (virtual CPUs share one)."""
    m = re.search(r"^flags\s*:\s*(.+)$", cpuinfo_text, re.M)
    if not m:
        return "unknown"
    return hashlib.sha256(" ".join(sorted(m.group(1).split())).encode()).hexdigest()[:16]
