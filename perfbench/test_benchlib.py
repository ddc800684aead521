"""Self-tests for the benchmark's own logic: the percentile / sample-count
rule, max-rate selection over the rate ladder, the open-loop validity
rules, the pool digest check and the cross-host guard.

    python3 perfbench/test_benchlib.py
"""
import math
import os
import tempfile
import unittest

import benchlib

LIMIT = 25.0


def integrity(step):
    return benchlib.step_integrity(step, 5.0, 0.01, 20)


def step(rate, p99_ms, n=1000, failed=0, late_ms=0.1, growth=0):
    """A ladder step whose nearest-rank p99 is exactly p99_ms."""
    k = n - math.ceil(0.99 * n) + 1  # samples at or above the p99 rank
    trial = [0.5] * (n - k) + [p99_ms] * k
    return {"rate": rate, "trials": n, "failed": failed, "trial_ms": trial,
            "late_ms": [late_ms] * 100, "backlog_mid": 5, "backlog_end": 5 + growth}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(v, 50), 50)
        self.assertEqual(benchlib.percentile(v, 99), 99)
        self.assertEqual(benchlib.percentile(v, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_failures_sort_last(self):
        v = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(benchlib.percentile(v, 98), 1.0)
        self.assertEqual(benchlib.percentile(v, 99), math.inf)

    def test_beyond_counts_samples_above_rank(self):
        self.assertEqual(benchlib.beyond(1000, 99), 10)
        self.assertEqual(benchlib.beyond(999, 99), 9)
        self.assertEqual(benchlib.beyond(100, 50), 50)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(10))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertEqual(benchlib.samples_for(99), 1000)

    def test_summarize_reports_count_and_tail(self):
        s = benchlib.summarize([float(i) for i in range(1000)])
        self.assertEqual((s["n"], s["p50"], s["tail_p"], s["tail_beyond"]),
                         (1000, 499.0, 99.0, 10))
        self.assertNotIn("tail", benchlib.summarize([1.0] * 5))

    def test_windowed_p99_ignores_a_minority_of_bad_windows(self):
        values, times = [], []
        for w in range(5):
            bad = w == 2
            for i in range(1000):
                values.append(50.0 if bad and i % 10 == 0 else 1.0)
                times.append(w + i / 1000.0)
        p99, per = benchlib.windowed_p99(values, times, 5, 5.0)
        self.assertEqual(p99, 1.0)
        self.assertEqual([n for _, n in per], [1000] * 5)
        self.assertEqual(per[2][0], 50.0)


class MaxRateSelection(unittest.TestCase):
    def test_highest_passing_rate_interpolated_toward_miss(self):
        steps = [step(1000, 1.0), step(2000, 5.0), step(3000, 125.0)]
        # log-linear between (2000, 5 ms) and (3000, 125 ms) crosses 25 ms
        # half way: ln(25/5) / ln(125/5) = 0.5.
        self.assertAlmostEqual(benchlib.max_rate(steps, LIMIT, integrity), 2500.0)

    def test_all_pass_returns_top_rate(self):
        steps = [step(1000, 1.0), step(2000, 2.0)]
        self.assertEqual(benchlib.max_rate(steps, LIMIT, integrity), 2000.0)

    def test_first_rate_misses(self):
        self.assertEqual(benchlib.max_rate([step(1000, 30.0)], LIMIT, integrity), 0.0)

    def test_failures_stop_without_interpolation(self):
        steps = [step(1000, 1.0), step(2000, 30.0, failed=3)]
        self.assertEqual(benchlib.max_rate(steps, LIMIT, integrity), 1000.0)

    def test_growing_backlog_is_a_miss(self):
        steps = [step(1000, 1.0), step(2000, 2.0, growth=500), step(3000, 2.0)]
        self.assertEqual(benchlib.max_rate(steps, LIMIT, integrity), 1000.0)

    def test_late_generator_is_inconclusive_and_retried(self):
        # A late first attempt at 2000 is superseded by its valid retry.
        steps = [step(1000, 1.0), step(2000, 80.0, late_ms=9.0), step(2000, 2.0),
                 step(3000, 2.0)]
        self.assertEqual(benchlib.max_rate(steps, LIMIT, integrity), 3000.0)
        # A rate with only late attempts ends the walk at the rate below.
        steps = [step(1000, 1.0), step(2000, 2.0, late_ms=9.0)]
        self.assertEqual(benchlib.max_rate(steps, LIMIT, integrity), 1000.0)

    def test_unserved_trials_do_not_interpolate(self):
        miss = step(2000, 1.0)
        miss["trial_ms"][-20:] = [math.inf] * 20
        self.assertEqual(benchlib.max_rate([step(1000, 1.0), miss], LIMIT, integrity), 1000.0)


class StepVerdict(unittest.TestCase):
    def test_verdicts(self):
        v = lambda st: benchlib.step_verdict(st, LIMIT, integrity)
        self.assertEqual(v(step(1000, 25.0)), "pass")
        self.assertEqual(v(step(1000, 25.5)), "miss")
        self.assertEqual(v(step(1000, 1.0, failed=1)), "miss")
        self.assertEqual(v(step(1000, 1.0, growth=500)), "miss")
        self.assertEqual(v(step(1000, 90.0, late_ms=9.0)), "late")


class StepIntegrity(unittest.TestCase):
    def test_limits(self):
        late_ok, backlog_ok, late, growth, why = integrity(step(1000, 1.0, late_ms=6.0))
        self.assertEqual((late_ok, backlog_ok, late), (False, True, 6.0))
        late_ok, backlog_ok, _, growth, why = integrity(step(5000, 1.0, n=5000, growth=51))
        self.assertEqual((late_ok, backlog_ok, growth), (True, False, 51))
        self.assertTrue(all(integrity(step(5000, 1.0, n=5000, growth=50))[:2]))


class DigestCheck(unittest.TestCase):
    def test_detects_missing_and_modified_pools(self):
        with tempfile.TemporaryDirectory() as d:
            good = b"pool bytes"
            with open(os.path.join(d, "a.pool"), "wb") as f:
                f.write(good)
            with open(os.path.join(d, "b.pool"), "wb") as f:
                f.write(good + b"!")
            want = {"a": benchlib.file_sha256(os.path.join(d, "a.pool")),
                    "b": benchlib.file_sha256(os.path.join(d, "a.pool")),
                    "c": "0" * 64}
            got = {n: ok for n, ok, _ in benchlib.check_pool_digests(d, want)}
            self.assertEqual(got, {"a": True, "b": False, "c": False})

    def test_recorded_digests_are_sha256(self):
        for host, digests in benchlib.POOL_SHA256:
            self.assertEqual(sorted(host), sorted(benchlib.DIGEST_KEYS))
            self.assertEqual(sorted(digests), sorted(benchlib.POOL_NAMES))
            for digest in digests.values():
                self.assertEqual(len(digest), 64)
                int(digest, 16)

    def test_digests_are_looked_up_by_host_stamp(self):
        host, digests = benchlib.POOL_SHA256[0]
        stamp = dict(host, nproc=4, build_type="Release", git_sha=None)
        self.assertIs(benchlib.recorded_pool_digests(stamp), digests)
        for key in benchlib.DIGEST_KEYS:
            self.assertIsNone(benchlib.recorded_pool_digests(dict(stamp, **{key: "other"})))

    def test_pool_digests_of_a_cache(self):
        with tempfile.TemporaryDirectory() as d:
            pool = os.path.join(d, "reddit-like.pool")
            for path in (pool, os.path.join(d, "other.pool")):
                with open(path, "wb") as f:
                    f.write(path.encode())
            self.assertEqual(benchlib.pool_digests(d),
                             {"reddit-like": benchlib.file_sha256(pool)})

    def test_csv_tree_compare(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for d, text in ((a, "x,1\n"), (b, "x,1\n")):
                with open(os.path.join(d, "f.csv"), "w") as f:
                    f.write(text)
            with open(os.path.join(a, "g.csv"), "w") as f:
                f.write("y\n")
            self.assertEqual(benchlib.compare_trees(a, b), [("f.csv", True), ("g.csv", False)])


class HostStamp(unittest.TestCase):
    STAMP = {"cpu_model": "X", "cpu_flags": "f", "nproc": 4, "compiler": "gcc 12",
             "flags": "-O3",
             "build_type": "Release", "git_sha": "a", "source_sha256": "s"}

    def result(self, **host):
        return {"workload": "w", "host": dict(self.STAMP, **host),
                "metrics": {"wall_s": {"value": 10.0}}}

    def test_same_host_different_commit_is_diffed(self):
        lines = benchlib.compare_results(self.result(), self.result(git_sha="b"),
                                         [{"name": "wall_s", "better": "lower"}])
        self.assertEqual(len(lines), 1)
        self.assertIn("+0.00%", lines[0])

    def test_cross_host_is_never_diffed(self):
        for field, value in (("cpu_model", "Y"), ("cpu_flags", "g"), ("nproc", 1),
                             ("flags", "-O2")):
            lines = benchlib.compare_results(self.result(), self.result(**{field: value}),
                                             [{"name": "wall_s", "better": "lower"}])
            self.assertEqual(len(lines), 1)
            self.assertTrue(lines[0].startswith("cross-host, not comparable"), lines[0])

    def test_cpu_model_parse(self):
        text = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor\n"
        self.assertEqual(benchlib.cpu_model(text), "Intel(R) Xeon(R) Processor")

    def test_cpu_flags_ignore_order(self):
        a = benchlib.cpu_flags("model name\t: X\nflags\t\t: sse avx2 fma\n")
        self.assertEqual(a, benchlib.cpu_flags("flags\t: fma sse avx2\n"))
        self.assertNotEqual(a, benchlib.cpu_flags("flags\t: fma sse\n"))
        self.assertEqual(benchlib.cpu_flags("model name\t: X\n"), "unknown")


if __name__ == "__main__":
    unittest.main()
