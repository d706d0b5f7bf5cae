"""Census benchmark of the scl package.

    python3 bench/run.py --workload orbit-aab --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  Every repetition of the census runs
in a fresh single-threaded worker process (``worker.py``), one after the
other, until ``--seconds`` is used up; its outputs are checked against
``references.json`` after its clock has stopped.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
count checked outputs over all repetitions, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics of traced
repetitions (``--trace 1``), each a median over the repetitions.  The
end-to-end times are in host seconds (see :func:`end_to_end`).  The line
before it records the run's context: seed, repetitions, raw medians,
calibration time, nproc, Python version, commit and error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_REPS = 3        # rounds of repetitions per run, whatever --seconds says
SETUP_PROBES = 2    # set-up-only workers per round of repetitions
RUN_LIMIT_S = 170   # the whole run ends well inside three minutes
CAL_NOMINAL_S = 0.040  # calibration task time that host seconds refer to


class WorkerUnavailable(Exception):
    """The worker cannot import scl: there is no source tree to measure."""


def _worker(name, wargs, flags, timeout):
    cmd = [sys.executable, str(WORKER), "--workload", name, *flags, *wargs]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        raise WorkerUnavailable(proc.stderr.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _commit():
    """HEAD of ROOT's own git directory, read without leaving ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(untraced, workers):
    """Census and set-up medians in host seconds: rescaled by the run's
    median calibration time to a host on which the task takes
    CAL_NOMINAL_S.  The host's speed drifts by tens of percent over
    minutes; a calibration probe in every worker of the run tracks it."""
    scale = CAL_NOMINAL_S / statistics.median(r["cal_s"] for r in workers)
    return {
        "wall_s": _metric(scale * statistics.median(r["wall_s"] for r in untraced), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        "setup_s": _metric(scale * statistics.median(r["setup_s"] for r in workers), "s"),
    }


def per_layer(untraced, traced, reference):
    """Per-layer metrics from the traced repetitions, with the untraced
    ones as the base of the overhead and memory ratios."""
    med = statistics.median
    m = {}
    for mod, fns in tracing.SEAMS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            stats = [r["stats"].get(name, [0, 0.0, 0.0]) for r in traced]
            m[f"{name}.calls"] = _metric(med(s[0] for s in stats), "count")
            m[f"{name}.self_s"] = _metric(med(s[1] for s in stats), "s")
            m[f"{name}.incl_s"] = _metric(med(s[2] for s in stats), "s")

    def work(key):
        return med(r["work"].get(key, 0) for r in traced)

    seen = work("mcg.orbit_ball.seen")
    for key in ("mcg.orbit_ball.seen", "mcg.orbit_ball.explored", "mcg.orbit_ball.members",
                "graphs.fold.letters", "graphs.canonical_key.vertices",
                "ribbon.boundary_cycles.darts", "words.conj_class.letters",
                "geometry.holonomy_trace.letters"):
        m[key] = _metric(work(key), "count")
    m["mcg.orbit_ball.useful_ratio"] = _metric(
        _ratio(work("mcg.orbit_ball.members"), seen), "ratio")
    growth_kb = 1024 * med(r["rss_growth_mb"] for r in untraced)
    m["mcg.orbit_ball.rss_per_seen_kb"] = _metric(_ratio(growth_kb, seen), "kB")
    lookups = m["currents.subgroup_boundary.calls"]["value"]
    misses = m["currents.boundary_report.calls"]["value"]
    m["currents.subgroup_boundary.hit_ratio"] = _metric(
        1.0 - misses / lookups if lookups else 0.0, "ratio")
    m["process.cpu_s"] = _metric(med(r["cpu_s"] for r in untraced), "s")
    m["trace_overhead_frac"] = _metric(
        med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in untraced) - 1, "ratio")
    moved = sorted({name for name in reference["traced"]
                    if m[f"{name}.calls"]["value"] == 0}
                   | {name for r in traced for name in r["missing"]})
    for name in moved:
        print(f"run: moved seam: {name} has no calls, but had some when the "
              f"references were pinned", file=sys.stderr)
    m["trace.moved_seams"] = _metric(len(moved), "count")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    started = time.perf_counter()
    deadline = started + args.seconds
    wargs = workloads.worker_args(args.workload, args.seed)
    reference = workloads.load_reference(args.workload)
    n_outputs = len(workloads.output_names(reference))

    def call(flags):
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        return _worker(args.workload, wargs, flags, timeout=max(left, 1.0))

    try:
        call(["--setup-only"])  # warm-up: byte-compiles scl, fills the file cache
        kinds = [[], ["--trace"]] if args.trace else [[]]
        runs = {0: [], 1: []}
        workers = []
        attempted = failed = 0
        failed_names = set()
        round_s = []
        while True:
            t0 = time.perf_counter()
            # set-up probes are spread over the run like the repetitions,
            # so set-up, census and calibration see the same host speeds
            for _ in range(SETUP_PROBES):
                r = call(["--setup-only"])
                if r is not None:
                    workers.append(r)
            for flags in kinds:
                r = call(flags)
                attempted += n_outputs
                if r is None:
                    failed += n_outputs
                    continue
                failed += len(r["failed"])
                failed_names.update(r["failed"])
                workers.append(r)
                runs[len(flags)].append(r)
            round_s.append(time.perf_counter() - t0)
            now = time.perf_counter()
            if now - started > RUN_LIMIT_S - 2 * max(round_s):
                break
            if len(round_s) >= MIN_REPS and now + statistics.median(round_s) > deadline:
                break
    except WorkerUnavailable as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2

    if not runs[0] or (args.trace and not runs[1]):
        print("run: no repetition completed", file=sys.stderr)
        return 1
    metrics = (per_layer(runs[0], runs[1], reference) if args.trace
               else end_to_end(runs[0], workers))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(round_s), "workers": len(workers),
        "wall_s_samples": [r["wall_s"] for r in runs[0]],
        "raw_wall_s": statistics.median(r["wall_s"] for r in runs[0]),
        "raw_setup_s": statistics.median(r["setup_s"] for r in workers),
        "cal_s": statistics.median(r["cal_s"] for r in workers),
        "error_rate": failed / attempted, "failed_outputs": sorted(failed_names),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "elapsed_s": time.perf_counter() - started,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
