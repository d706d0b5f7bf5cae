"""Tests of the benchmark's own code: the output checker, the self-time
arithmetic of the tracer, the runner's metrics, and the seeded inputs.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import copy
import json
import random
import sys
import types
import unittest
from pathlib import Path

import run
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
BENCHMARK = SRC.parent / "BENCHMARK.json"


def _scl():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scl
    return scl


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.mod = types.SimpleNamespace()
        clock, mod = self.clock, self.mod

        def inner(x):
            clock.now += 2.0
            return x + 1

        def outer(x):
            clock.now += 1.0
            y = mod.inner(x)
            clock.now += 3.0
            return mod.inner(y)

        def countdown(n):
            clock.now += 1.0
            return n if n == 0 else mod.countdown(n - 1)

        mod.inner, mod.outer, mod.countdown = inner, outer, countdown
        self.originals = (inner, outer, countdown)
        self.tracer = tracing.Tracer(clock=self.clock, sizes={
            "m.inner": lambda args, kwargs, result: {"items": args[0]}})
        self.tracer.install({"m": mod}, seams={"m": ("inner", "outer", "countdown", "gone")})

    def test_self_time_excludes_traced_children(self):
        self.assertEqual(self.mod.outer(5), 7)
        stats = self.tracer.stats
        self.assertEqual(stats["m.inner"], [2, 4.0, 4.0])
        self.assertEqual(stats["m.outer"], [1, 4.0, 8.0])
        self.assertEqual(self.tracer.work, {"m.inner.items": 5 + 6})

    def test_recursion_counts_inclusive_time_once(self):
        self.mod.countdown(3)
        self.assertEqual(self.tracer.stats["m.countdown"], [4, 4.0, 4.0])

    def test_time_of_a_raising_child_still_reaches_its_parent(self):
        clock, mod = self.clock, self.mod

        def failing():
            clock.now += 5.0
            raise ValueError

        def caller():
            try:
                mod.failing()
            except ValueError:
                clock.now += 1.0

        mod.failing, mod.caller = failing, caller
        self.tracer.install({"m": mod}, seams={"m": ("failing", "caller")})
        mod.caller()
        self.assertEqual(self.tracer.stats["m.caller"], [1, 1.0, 6.0])
        self.assertEqual(self.tracer.stats["m.failing"], [1, 5.0, 5.0])

    def test_missing_seam_is_reported_and_uninstall_restores(self):
        self.assertEqual(self.tracer.missing, ["m.gone"])
        self.tracer.uninstall()
        self.assertEqual((self.mod.inner, self.mod.outer, self.mod.countdown),
                         self.originals)


class CheckTest(unittest.TestCase):
    REFERENCE = {"pinned": {"row 1.0": 3, "row 2.0": 9, "fibers": {"2": 4}},
                 "oracles": ["oracle"]}

    def test_exact_match_passes(self):
        pinned = copy.deepcopy(self.REFERENCE["pinned"])
        self.assertEqual(workloads.check(self.REFERENCE, pinned, {"oracle": True}, False), [])

    def test_each_kind_of_failure_is_caught(self):
        pinned = copy.deepcopy(self.REFERENCE["pinned"])
        pinned["row 2.0"] = 10
        del pinned["fibers"]
        failed = workloads.check(self.REFERENCE, pinned, {}, False)
        self.assertEqual(failed, ["fibers", "row 2.0", "oracle"])

    def test_fatal_run_fails_every_output(self):
        pinned = copy.deepcopy(self.REFERENCE["pinned"])
        failed = workloads.check(self.REFERENCE, pinned, {"oracle": True}, True)
        self.assertEqual(len(failed), len(workloads.output_names(self.REFERENCE)))


class CensusCheckTest(unittest.TestCase):
    """A real census run against the pinned reference, and against copies
    of it with one value perturbed."""

    @classmethod
    def setUpClass(cls):
        scl = _scl()
        cls.name = "census-scc"
        args = types.SimpleNamespace(L=workloads.SCC_L, grid=",".join(
            map(repr, workloads.scc_grid())))
        cls.ctx = workloads.Context(cls.name, args, scl)
        cls.summary = workloads.summarize(cls.ctx, workloads.run(cls.ctx))
        cls.reference = workloads.load_reference(cls.name)

    def test_pinned_reference_passes(self):
        self.assertEqual(workloads.check(self.reference, *self.summary), [])

    def test_perturbed_reference_fails(self):
        rng = random.Random(7)
        for key in rng.sample(sorted(self.reference["pinned"]), 5):
            bad = copy.deepcopy(self.reference)
            bad["pinned"][key] += 1
            self.assertEqual(workloads.check(bad, *self.summary), [key])


class RunMetricsTest(unittest.TestCase):
    def test_times_are_rescaled_by_the_median_calibration(self):
        reps = [{"wall_s": w, "peak_rss_mb": 10.0, "setup_s": 0.02, "cal_s": c}
                for w, c in ((2.0, 2 * run.CAL_NOMINAL_S), (3.0, 2 * run.CAL_NOMINAL_S),
                             (2.5, 4 * run.CAL_NOMINAL_S))]
        probe = {"setup_s": 0.04, "cal_s": 2 * run.CAL_NOMINAL_S}
        m = run.end_to_end(reps, reps + [probe])
        self.assertAlmostEqual(m["wall_s"]["value"], 2.5 / 2)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.02 / 2)
        self.assertEqual(m["peak_rss_mb"]["value"], 10.0)
        declared = json.loads(BENCHMARK.read_text())["end_to_end"]
        self.assertEqual(sorted(m), sorted(d["name"] for d in declared))

    def test_cache_hit_ratio_and_moved_seams(self):
        stats = {"currents.subgroup_boundary": [10, 0.1, 0.1],
                 "currents.boundary_report": [4, 0.1, 0.1]}
        traced = [{"stats": stats, "work": {}, "missing": ["words.apply"], "wall_s": 1.1}]
        untraced = [{"rss_growth_mb": 1.0, "cpu_s": 1.0, "wall_s": 1.0}]
        reference = {"traced": ["currents.subgroup_boundary", "graphs.fold"]}
        m = run.per_layer(untraced, traced, reference)
        self.assertAlmostEqual(m["currents.subgroup_boundary.hit_ratio"]["value"], 0.6)
        self.assertEqual(m["trace.moved_seams"]["value"], 2)  # graphs.fold, words.apply
        self.assertAlmostEqual(m["trace_overhead_frac"]["value"], 0.1)
        declared = json.loads(BENCHMARK.read_text())["per_layer"]
        self.assertEqual(sorted(m), sorted(d["name"] for d in declared))


class InputTest(unittest.TestCase):
    def test_seeded_inputs_repeat(self):
        for name in workloads.NAMES:
            self.assertEqual(workloads.worker_args(name, 11), workloads.worker_args(name, 11))

    def test_orbit_seeds_present_one_subgroup_class(self):
        scl = _scl()
        surface = scl.geometry.modular_torus()
        for name, gens in workloads.ORBIT_SEEDS.items():
            want = scl.graphs.subgroup_class(
                [scl.words.word_from_str(w) for w in gens], surface=surface)
            for seed in range(40):
                args = workloads.worker_args(name, seed)
                current = scl.currents.parse_current(args[1], surface)
                self.assertEqual([h for h, _ in current.terms], [want], (name, seed))

    def test_hall_counts(self):
        self.assertEqual([workloads.hall_count(2, k) for k in (1, 2, 3, 7)],
                         [1, 3, 13, 29093])


if __name__ == "__main__":
    unittest.main()
