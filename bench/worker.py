"""One repetition of one census workload, in a process of its own.

Run by ``run.py`` with the workload's parameters as arguments; prints one
JSON object on stdout.  The process imports scl from the ``src`` tree
next to this directory, times set-up and the census separately, checks
the outputs after the clock has stopped and reports its own peak RSS.
Exit code 3 means scl could not be imported from that tree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
CAL_STEPS = 50_000


def calibration_s():
    """Seconds a fixed pure-Python task takes: a probe of the host's speed.

    The task does in miniature what the censuses do: reduce a word on a
    stack, hash tuples, count in a dict.  It never touches scl, so no
    change to the package moves it.
    """
    start = time.perf_counter()
    counts = {}
    word = []
    for i in range(CAL_STEPS):
        letter = (i * 40503) % 5 - 2 or 2
        if word and word[-1] == -letter:
            word.pop()
        else:
            word.append(letter)
        key = tuple(word[-6:])
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def _import_scl():
    """The scl modules named in the trace seams, loaded from ``SRC`` only."""
    sys.path.insert(0, str(SRC))
    try:
        scl = importlib.import_module("scl")
    except ImportError:
        return None
    if Path(scl.__file__).resolve().parent.parent != SRC:
        return None
    for mod in tracing.SEAMS:
        importlib.import_module(f"scl.{mod}")
    return scl


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (set-up timing probe)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--pin", action="store_true",
                   help="print this tree's outputs as a reference entry instead of checking")
    p.add_argument("--current")
    p.add_argument("--functional")
    p.add_argument("--L", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--grid")
    p.add_argument("--rank", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--order", type=int)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    setup_start = time.perf_counter()
    scl = _import_scl()
    if scl is None:
        print(f"worker: cannot import scl from {SRC}", file=sys.stderr)
        return 3
    ctx = workloads.Context(args.workload, args, scl)
    setup_s = time.perf_counter() - setup_start
    result = {"setup_s": setup_s, "cal_s": calibration_s()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = None if args.pin else workloads.load_reference(args.workload)
    tracer = tracing.Tracer() if args.trace or args.pin else None
    rss_before = _rss_mb()
    cpu0 = _cpu_s()
    if tracer:
        tracer.install({mod: getattr(scl, mod) for mod in tracing.SEAMS})
    start = time.perf_counter()
    try:
        output = workloads.run(ctx)
    except Exception:  # every output of a crashed census counts as failed
        traceback.print_exc()
        output = None
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    if tracer:
        tracer.uninstall()
    peak_rss_mb = _rss_mb()

    if args.pin:
        pinned, oracles, fatal = workloads.summarize(ctx, output)
        if fatal or not all(oracles.values()):
            print(f"worker: refusing to pin a failing run: {oracles}", file=sys.stderr)
            return 1
        print(json.dumps({"pinned": pinned, "oracles": sorted(oracles),
                          "traced": sorted(n for n, s in tracer.stats.items() if s[0])}))
        return 0
    if output is None:
        failed = workloads.output_names(reference)
    else:
        failed = workloads.check(reference, *workloads.summarize(ctx, output))
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        rss_growth_mb=peak_rss_mb - rss_before,
        outputs=len(workloads.output_names(reference)), failed=failed,
    )
    if tracer:
        result["stats"] = tracer.stats
        result["work"] = tracer.work
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
