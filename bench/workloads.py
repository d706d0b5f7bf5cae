"""The census workloads: inputs made from a seed, the timed call, and the
checks of its outputs.

The seed picks an equivalent presentation of one fixed census: a
Nielsen-equivalent, conjugated generator list for the orbit seeds, a
shuffled grid for the curve census, a shuffled processing order for the
low-index covers.  The program parses and folds these inputs itself, but
every census output is the same for every seed, so one pinned reference
per workload serves all seeds.  ``seen`` and ``explored`` are never
checked: a certified pruning may lower them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

FUNCTIONAL = "lsc"
MARGIN = 1.5
ORBIT_SEEDS = {"orbit-aab": ("aa", "b"), "orbit-curve": ("a",)}
ORBIT_L = {"orbit-aab": 30.0, "orbit-curve": 32.0}
ORBIT_GRID_POINTS = 20
SCC_L = 90.0
SCC_GRID_POINTS = 30
SCC_N4 = 9  # integer multicurves of length <= 4: 3 curves under 2, 3 more under 4
LOW_INDEX_RANK = 2
LOW_INDEX_K = 6

NAMES = ("orbit-aab", "orbit-curve", "census-scc", "low-index")


# ---------------------------------------------------------------- inputs

def _reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _inverse(word):
    return word[::-1].swapcase()


def equivalent_generators(gens, rng, moves=4):
    """A generator list for a conjugate of ``<gens>``: random Nielsen
    moves (inversions and transvections), a shuffle, then conjugation by a
    short random word."""
    gens = list(gens)
    for _ in range(moves):
        i = rng.randrange(len(gens))
        if len(gens) > 1 and rng.random() < 0.5:
            j = rng.choice([x for x in range(len(gens)) if x != i])
            other = gens[j] if rng.random() < 0.5 else _inverse(gens[j])
            gens[i] = _reduce(gens[i] + other if rng.random() < 0.5 else other + gens[i])
        else:
            gens[i] = _inverse(gens[i])
    rng.shuffle(gens)
    conj = _reduce("".join(rng.choice("abAB") for _ in range(rng.randint(0, 2))))
    return [_reduce(conj + g + _inverse(conj)) for g in gens]


def orbit_grid(L):
    return [L * (i + 1) / ORBIT_GRID_POINTS for i in range(ORBIT_GRID_POINTS)]


def scc_grid():
    """30 points: L = 4, where N is known, and 29 evenly spaced up to SCC_L."""
    return [4.0] + [SCC_L * (i + 1) / (SCC_GRID_POINTS - 1) for i in range(SCC_GRID_POINTS - 1)]


def worker_args(name, seed):
    """Command-line arguments of the worker for one workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    if name in ORBIT_SEEDS:
        gens = equivalent_generators(ORBIT_SEEDS[name], rng)
        return ["--current", "1:" + ",".join(gens), "--functional", FUNCTIONAL,
                "--L", repr(ORBIT_L[name]), "--margin", repr(MARGIN)]
    if name == "census-scc":
        grid = scc_grid()
        rng.shuffle(grid)
        return ["--L", repr(SCC_L), "--grid", ",".join(map(repr, grid))]
    if name == "low-index":
        return ["--rank", str(LOW_INDEX_RANK), "--k", str(LOW_INDEX_K),
                "--order", str(rng.randrange(2 ** 32))]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- runs

class Context:
    """Parsed inputs of one run; building it is the timed set-up."""

    def __init__(self, name, args, scl):
        self.name = name
        self.scl = scl
        self.surface = scl.geometry.validated(scl.geometry.modular_torus())
        self.twists = scl.mcg.twist_generators(self.surface)
        if name in ORBIT_SEEDS:
            self.current = scl.currents.parse_current(args.current, self.surface)
            self.functional = scl.currents.parse_functional(args.functional)
            self.L = args.L
            self.margin = args.margin
            self.grid = orbit_grid(args.L)
        elif name == "census-scc":
            self.L = args.L
            self.grid = [float(x) for x in args.grid.split(",")]
        else:
            self.rank, self.k, self.order = args.rank, args.k, args.order


def run(ctx):
    """The timed census.  Every call goes through a module attribute, so
    a traced run sees it."""
    scl = ctx.scl
    if ctx.name in ORBIT_SEEDS:
        ball = scl.mcg.orbit_ball(ctx.current, ctx.functional, ctx.L, ctx.margin,
                                  surface=ctx.surface, twists=ctx.twists, mode="eta")
        return ball, scl.census.count_by_length(ball, ctx.grid), scl.census.fiber_histogram(ball)
    if ctx.name == "census-scc":
        return scl.census.mlz_census(ctx.surface, ctx.L, ctx.grid)
    covers = scl.graphs.subgroups_of_index(ctx.rank, ctx.k)
    random.Random(ctx.order).shuffle(covers)
    classes = [scl.graphs.subgroup_class(g, surface=ctx.surface) for g in covers]
    return classes, [scl.currents.subgroup_boundary(h, ctx.surface) for h in classes]


# ---------------------------------------------------------------- checks

def hall_count(rank, k):
    """Index-k subgroups of the free group of the given rank (Hall 1949)."""
    counts = []
    for j in range(1, k + 1):
        total = j * math.factorial(j) ** (rank - 1)
        for i in range(1, j):
            total -= math.factorial(j - i) ** (rank - 1) * counts[i - 1]
        counts.append(total)
    return counts[-1]


def _rows(table_rows):
    return {f"row {L!r}": n for L, n in table_rows}


def _boundary_keys_digest(ball):
    lines = sorted(";".join(f"{letters}:{w}" for letters, w in b_key)
                   for _, _, b_key in ball.members())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def summarize(ctx, output):
    """Pinned outputs (name -> JSON value) and oracle verdicts (name -> bool).

    ``fatal`` marks a run whose every output counts as failed.
    """
    scl = ctx.scl
    if ctx.name in ORBIT_SEEDS:
        ball, table, hist = output
        pinned = _rows(table.rows)
        pinned["frontier_exhausted"] = ball.frontier_exhausted
        pinned["fibers"] = {str(size): n for size, n in sorted(hist.items())}
        oracles = {}
        if ctx.name == "orbit-aab":
            pinned["boundary_keys"] = _boundary_keys_digest(ball)
            oracles["constant fiber size 2"] = set(hist) == {2}
        else:
            members = ball.members()
            oracle = {c.letters: ell for _, c, ell in scl.census.scc_classes(ctx.surface, ctx.L)}
            got = {b_key[0][0]: value for _, value, b_key in members}
            oracles["classes = slope oracle"] = (len(got) == len(members)
                                                 and set(got) == set(oracle))
            oracles["values = slope oracle (rel 1e-12)"] = all(
                abs(value - oracle.get(c, math.inf)) <= 1e-12 * abs(value)
                for c, value in got.items())
        return pinned, oracles, not ball.frontier_exhausted
    if ctx.name == "census-scc":
        table, _ = output
        pinned = _rows(table.rows)
        return pinned, {"N(4) = 9": dict(table.rows).get(4.0) == SCC_N4}, False
    classes, images = output
    hist = {}
    cusp_ok = True
    for h in classes:
        report = scl.currents.boundary_report(h, ctx.surface)
        cusp_ok &= (not report.geodesic_cycles
                    and sum(p for _, _, p in report.cusp_cycles) == ctx.k)
        key = f"genus {report.genus}, cusps {len(report.cusp_cycles)}"
        hist[key] = hist.get(key, 0) + 1
    pinned = {"count": len(classes), "genus/cusp histogram": dict(sorted(hist.items()))}
    oracles = {
        "count = Hall recursion": len(classes) == hall_count(ctx.rank, ctx.k),
        "all-cusp boundary of total power k": cusp_ok,
        "zero boundary image": all(b.is_zero() for b in images),
    }
    return pinned, oracles, False


def load_reference(name):
    """``{"pinned": {name: value}, "oracles": [name]}`` for one workload."""
    with REFERENCES.open() as fh:
        return json.load(fh)[name]


def output_names(reference):
    return sorted(reference["pinned"]) + sorted(reference["oracles"])


def check(reference, pinned, oracles, fatal):
    """Names of the failed outputs.

    Every pinned reference entry and every oracle the reference names is
    one output; a missing one fails, and a fatal run fails them all.
    """
    if fatal:
        return output_names(reference)
    want = reference["pinned"]
    failed = [n for n in sorted(want) if pinned.get(n) != want[n]]
    failed += [n for n in sorted(reference["oracles"]) if not oracles.get(n, False)]
    return failed
