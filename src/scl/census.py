"""Counting experiments: census tables, exponent fits, fiber statistics,
and the independent slope oracle for the once-punctured torus.

The slope oracle parameterizes simple closed curves by coprime pairs via
Christoffel words and walks the Stern-Brocot tree, so it never touches
the orbit machinery it is used to cross-check.  A Christoffel word is
the product of its Farey parents' words, so on an exact surface a node
is measured from its parents' traces by Fricke's identity, one
multiplication, and on a float surface by one product of their holonomy
matrices.  Only the slopes it keeps are turned into words and classes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, deque
from operator import itemgetter

from . import currents, geometry, mcg, words
from .errors import ConfigError, InputError, LemmaHypothesisError, Record, ResourceLimitError
from .mcg import OrbitBall


class CensusTable(Record):
    """(L, count) ``rows`` with nondecreasing counts, plus the run's ``meta``
    dict."""

    _fields = ("rows", "meta")


class FitResult(Record):
    """Least-squares line of log N against log L over ``window``."""

    _fields = ("slope", "intercept", "r2", "window")


def _table(kind, surface, rows, **meta) -> CensusTable:
    """Census table whose meta names its kind, its surface and the growth
    exponent 6g - 6 + 2r of the surface."""
    return CensusTable(rows=tuple(rows), meta={
        "kind": kind, "surface": surface.name,
        "exponent": 6 * surface.genus - 6 + 2 * surface.cusps, **meta})


def make_grid(limit: float, points: int):
    """``points`` evenly spaced lengths up to ``limit``.  The last one is
    ``limit`` itself, which ``limit * points / points`` can round above."""
    if points < 1 or not 0 < limit < math.inf:
        raise InputError("grid needs a finite positive limit and at least one point")
    grid = [limit * (i + 1) / points for i in range(points - 1)] + [limit]
    if math.inf in grid:
        raise InputError(f"grid of {points} points up to {limit} overflows")
    return grid


def _checked_grid(grid, limit, name):
    """Sorted nonempty grid of positive points, with no NaN point and none
    beyond ``limit``.

    A NaN compares false with everything, so it would slip past the limit
    check and give a silently wrong count.  A length cutoff must be
    positive, as ``make_grid`` requires of its limit.
    """
    grid = sorted(grid)
    if not grid:
        raise InputError("grid needs at least one point")
    if any(math.isnan(L) for L in grid):
        raise InputError("grid has a NaN point")
    if not grid[0] > 0:
        raise InputError(f"grid point {grid[0]} is not positive")
    if grid[-1] > limit:
        raise InputError(f"grid reaches {grid[-1]} beyond {name} {limit}")
    return grid


def count_by_length(ball: OrbitBall, grid) -> CensusTable:
    """Cumulative ball counts at each grid radius."""
    grid = _checked_grid(grid, ball.cutoff, "the ball cutoff")
    values = ball.member_values()
    rows = [(L, bisect_right(values, L)) for L in grid]
    return _table("orbit", ball.surface, rows, functional=ball.functional,
                  margin=ball.margin, frontier_exhausted=ball.frontier_exhausted)


def fit_exponent(table: CensusTable, window) -> FitResult:
    """Least-squares slope of log N against log L over the window."""
    lo, hi = window
    pts = [(math.log(L), math.log(n)) for L, n in table.rows if lo <= L <= hi and n > 0]
    if len(pts) < 3:
        raise InputError(f"need at least 3 positive rows in window {window}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    n = len(pts)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0:
        raise InputError("window collapses to a single abscissa")
    slope = sxy / sxx
    intercept = my - slope * mx
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return FitResult(slope=slope, intercept=intercept, r2=r2, window=(lo, hi))


def fiber_histogram(ball: OrbitBall) -> dict:
    """Sizes of the fibers of the boundary projection over the ball.

    Fibers are saturated for length-type functionals (the value factors
    through the boundary image), so a frontier-exhausted ball carries
    whole fibers.  A ball grown on the boundary multicurve lifts every
    member's fiber as a twisted copy of the seed's, so there the histogram
    has one size by construction; the size itself is read off the
    subgroup-level walk that found the seed's fiber.  A cyclic seed's
    fibers are single classes keyed from their curves, so its histogram
    is ``{1: members}``.
    """
    seed_b = currents.boundary_projection(ball.seed, ball.surface)
    if seed_b.is_zero():
        raise LemmaHypothesisError(
            "fiber statistics need a seed with nonzero boundary image")
    if not ball.frontier_exhausted:
        raise InputError("fiber statistics need a frontier-exhausted ball")
    return dict(Counter(Counter(b_key for _, _, b_key in ball.members()).values()))


def christoffel_word(p: int, q: int):
    """Lower Christoffel word with p letters 'a' and q letters 'b'.

    Negative q swaps b for its inverse, so coprime pairs modulo total
    sign sweep the primitive unoriented classes of the punctured torus.
    """
    if p == 0 and q == 0:
        raise InputError("slope (0, 0) is not a curve")
    if math.gcd(abs(p), abs(q)) != 1:
        raise InputError(f"({p}, {q}) is not coprime")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    b_letter = 2 if q >= 0 else -2
    qa = abs(q)
    n = p + qa
    out = []
    prev = 0
    for i in range(1, n + 1):
        cur = (i * qa) // n
        out.append(1 if cur == prev else b_letter)
        prev = cur
    return tuple(out)


def _check_slope_oracle(surface, limit: float):
    """The root triple (tr a, tr b, tr ab) of this surface, each trace
    summed as ``geometry._product`` sums a diagonal; raise unless the limit
    is finite and positive and the slope walk from that root finds every
    curve.

    The walk prunes a subtree once traces pass the limit, which is sound
    only if traces grow away from its root, the edge between the
    triples (tr a, tr b, tr ab) and (tr a, tr b, tr aB).  By Bowditch
    (1998, Markoff triples and quasifuchsian groups) the edges of the
    trace tree of a punctured torus point to one sink, and traces grow
    away from it.  The root edge is that sink when no edge leaving it
    points back in: in both triples (x, y, z), flipping x or y through
    Fricke's identity, x' = yz - x, lowers neither |x| nor |y|.  A marking
    that fails this, such as b -> a^5 b on the modular torus, would give
    a silently short count; b -> a^2 b fails it too and is refused,
    though there the walk happens to be right.
    """
    if not surface.is_punctured_torus:
        raise ConfigError(
            f"surface {surface.name!r} is not a once-punctured torus of rank 2; "
            "the slope oracle knows only its curves")
    if not 0 < limit < math.inf:
        raise InputError(f"limit must be finite and positive, got {limit}")
    mats = surface._letter_matrices
    ab = geometry._product(mats[1], mats[2])
    x, y, z = mats[1][0] + mats[1][3], mats[2][0] + mats[2][3], ab[0] + ab[3]
    for zz in (z, x * y - z):
        if abs(y * zz - x) < abs(x) or abs(x * zz - y) < abs(y):
            raise ConfigError(
                f"surface {surface.name!r}: the root (tr a, tr b, tr ab) = ({x}, {y}, {z}) "
                "is not a local minimum of the trace tree, so the slope walk could miss "
                "curves")
    return x, y, z


def _trace_bound(limit: float) -> float:
    """A trace bound past which a length is surely over ``limit``: the
    trace of length ``limit`` with a relative margin of 1e-9, far above
    the arccosh's rounding; ``inf`` once cosh overflows."""
    try:
        return 2.0 * math.cosh(limit / 2.0) * (1.0 + 1e-9)
    except OverflowError:
        return math.inf


def _slope_lengths(surface, limit: float):
    """(slope, length) of every simple closed geodesic of length <= limit,
    sorted by length then slope, and the number of slopes measured.

    Walks the Stern-Brocot tree of coprime pairs on the two branches
    (1, 0)-(0, 1) and (1, 0)-(0, -1).  The Christoffel word of a mediant
    is the product LR of its parents' words, smaller slope first.  On an
    exact surface a queue entry is an edge (L, R) and carries
    (tr L, tr R, tr L^-1 R), so Fricke's identity
    tr LR = tr L tr R - tr L^-1 R measures the mediant with one
    multiplication.  Its children's edges carry (tr L, tr LR, tr R), since
    L^-1 LR = R, and (tr LR, tr R, tr L), since (LR)^-1 R = R^-1 L^-1 R
    is conjugate to L^-1, whose trace is tr L.  The roots carry
    (tr a, tr b, tr a tr b - tr ab), as a^-1 b has trace tr a tr b - tr ab,
    and (tr a, tr b, tr ab), as a^-1 b^-1 is the inverse of ba.

    On a float surface an entry carries the two matrices instead, and one
    2x2 product measures the mediant, its trace the sum of the product's
    diagonal, so no length moves by an ulp; the third trace goes unused.

    The walk starts from the root triple that ``_check_slope_oracle``
    returns, the one check of the surface and the limit on this path.
    That check makes the root edge the sink of the trace tree, so |trace|
    never decreases along the walk and no descendant of an over-limit
    slope is inside the limit: that slope is dropped with its subtree.
    A trace above 2 cosh(limit / 2), with room for the arccosh's
    rounding, is over the limit with no length taken.  Every other trace
    goes through ``checked_length``, which raises on a parabolic or
    elliptic one.  Keeping more than ``mcg.DEFAULT_BALL_CAP`` slopes
    raises ``ResourceLimitError``: once 2 cosh(limit / 2) overflows, the
    trace bound is ``inf`` and nothing else would end the walk.  The walk
    is breadth-first, so that cap is reached at depth about 20: depth
    first would follow one branch, whose traces grow exponentially, and
    run out of memory on their digits long before.

    The slopes measured, reported as ``slopes_measured``, are the two
    roots and every slope popped: 4 + 2 (k - k0) for k kept slopes, k0
    of them roots (4,404 at L = 90 on the modular torus).
    """
    tr_a, tr_b, tr_ab = _check_slope_oracle(surface, limit)
    bound, cap = _trace_bound(limit), mcg.DEFAULT_BALL_CAP
    checked_length, product = geometry.checked_length, geometry._product
    out = []
    for slope, t in (((1, 0), tr_a), ((0, 1), tr_b)):
        ell = checked_length(t, surface, slope)
        if ell <= limit:
            out.append((slope, ell))

    exact = surface.exact
    if exact:
        queue = deque([((1, 0), tr_a, (0, 1), tr_b, tr_a * tr_b - tr_ab),
                       ((1, 0), tr_a, (0, -1), tr_b, tr_ab)])
    else:
        mats = surface._letter_matrices
        queue = deque([((1, 0), mats[1], (0, 1), mats[2], None),
                       ((1, 0), mats[1], (0, -1), mats[-2], None)])
    measured = 2
    push, pop = queue.append, queue.popleft
    while queue:
        left, lv, right, rv, w = pop()
        measured += 1
        if exact:
            t = v = lv * rv - w
        else:
            v = product(lv, rv)
            t = v[0] + v[3]
        slope = (left[0] + right[0], left[1] + right[1])
        if not (abs(t) <= bound and (ell := checked_length(t, surface, slope)) <= limit):
            # dropped with its subtree.  A continue, since on CPython 3.11
            # its jump back, unlike the loop test's, warms the loop up for
            # specialization within a first, cold call
            continue
        out.append((slope, ell))
        if len(out) > cap:
            raise ResourceLimitError(
                f"slope walk exceeded cap of {cap} slopes: kept {len(out)}, "
                f"longest kept {max(e for _, e in out):.6g}")
        push((left, lv, slope, v, rv))
        push((slope, v, right, rv, lv))
    out.sort(key=itemgetter(1, 0))
    return out, measured


def scc_classes(surface, limit: float):
    """Simple closed geodesics of length <= limit, via the slope oracle.

    The Stern-Brocot walk of ``_slope_lengths`` measures each slope from
    its parents' traces (or matrices, on a float surface); only the kept
    slopes are turned into Christoffel words and canonicalized.  Returns
    [(slope, class, length)] sorted by length then slope.
    """
    return [(slope, words.conj_class(christoffel_word(*slope)), ell)
            for slope, ell in _slope_lengths(surface, limit)[0]]


def scc_census(surface, limit: float, grid) -> CensusTable:
    """Counts of simple closed geodesics up to each grid length.  The grid
    is checked before the guarded walk, so a bad grid (an empty one, say)
    is an InputError that costs no walk."""
    grid = _checked_grid(grid, limit, "limit")
    rows, measured = _slope_lengths(surface, limit)
    lengths = [ell for _, ell in rows]
    return _table("scc", surface, [(L, bisect_right(lengths, L)) for L in grid],
                  slopes_measured=measured)


def _multiples(lengths, L: float) -> int:
    """The sum of ``int(L / ell)`` over the ascending positive ``lengths``,
    counted as the sum over m >= 1 of k_m, the number of lengths with
    ``L / ell >= m``.

    A correctly rounded quotient never increases as ``ell`` grows, so each
    k_m is the size of a prefix, and k_1 is the ``ell <= L`` prefix.
    k_{m+1} is bisected for inside [0, k_m) at ``L / (m + 1)`` and then
    moved until the quotients on either side of it pass and fail the test
    ``L / ell >= m + 1``, so every count rests on the quotient itself:
    ``ell <= L / (m + 1)`` alone can disagree with that test at a boundary.
    """
    n = 0
    m = 1
    k = bisect_right(lengths, L)
    while k:
        n += k
        m += 1
        j = bisect_right(lengths, L / m, 0, k)
        while j and L / lengths[j - 1] < m:
            j -= 1
        while j < k and L / lengths[j] >= m:
            j += 1
        k = j
    return n


def mlz_census(surface, limit: float, grid):
    """Integer-multicurve counts and their L^2-normalized ratios.

    On the punctured torus every integer simple multicurve is a positive
    multiple of a single curve, so N(L) is a sum of floor(L / length)
    over the curve census.  ``_multiples`` counts it by one bisection per
    multiple rather than one division per curve, and settles every
    boundary on the quotient ``L / length`` itself, so the count is the
    per-curve sum's exactly.  The ratio column estimates the Thurston
    measure of the unit length ball; it is 0.0 for a count of 0, the only
    count at which L * L can underflow.  The grid is checked before the
    guarded walk, as in ``scc_census``.
    """
    grid = _checked_grid(grid, limit, "limit")
    curves, measured = _slope_lengths(surface, limit)
    lengths = [ell for _, ell in curves]
    rows = []
    ratios = []
    for L in grid:
        n = _multiples(lengths, L)
        rows.append((L, n))
        ratios.append(n / (L * L) if n else 0.0)
    return _table("mlz", surface, rows, slopes_measured=measured), ratios
