"""Per-layer tracing of the scl package from outside it.

A :class:`Tracer` replaces public functions of the scl modules by timing
wrappers at their module attributes, the seams through which the package
calls itself (``graphs.fold(...)`` inside ``mcg``, a bare ``fold(...)``
inside ``graphs`` reads the same module dictionary).  Every wrapped call
is one span; a stack of open spans splits each span's duration into self
time and the time of its traced children, so nested layers are never
counted twice.
"""

from __future__ import annotations

import time

# Entry points wrapped in a traced run, by module of the scl package.
SEAMS = {
    "mcg": ("orbit_ball", "act_on_subgroup"),
    "graphs": ("fold", "core", "canonical_key", "spanning_generators",
               "subgroup_class", "subgroups_of_index"),
    "words": ("apply", "conj_class", "primitive_root", "is_peripheral"),
    "ribbon": ("classify_boundary", "boundary_cycles"),
    "currents": ("subgroup_boundary", "boundary_report", "length_gc"),
    "geometry": ("geodesic_length", "holonomy_trace"),
    "census": ("mlz_census", "scc_classes", "count_by_length", "fiber_histogram"),
}


def _orbit_ball_sizes(args, kwargs, ball):
    bound = ball.margin * ball.cutoff
    values = [v for v, _ in ball.elements.values()]
    return {
        "seen": len(values),
        "explored": sum(1 for v in values if v <= bound),
        "members": sum(1 for v in values if v <= ball.cutoff),
    }


# Work sizes recorded per call, read from the arguments or the result
# after the span has closed.  ``fold`` is handed generator lists by every
# caller, so reading them after the call is safe.
SIZES = {
    "mcg.orbit_ball": _orbit_ball_sizes,
    "graphs.fold": lambda a, kw, r: {"letters": sum(len(w) for w in a[0])},
    "graphs.canonical_key": lambda a, kw, r: {"vertices": a[0].vertex_count},
    "ribbon.boundary_cycles": lambda a, kw, r: {"darts": 2 * len(a[0].edges)},
    "words.conj_class": lambda a, kw, r: {"letters": len(a[0])},
    "geometry.holonomy_trace": lambda a, kw, r: {"letters": len(a[0])},
}


class Tracer:
    """Span accounting for wrapped callables.

    ``stats[name]`` is ``[calls, self_s, incl_s]``; ``work[name.size]``
    sums the sizes from :data:`SIZES`.  Inclusive time is added only by
    the outermost active span of a name, so recursion is not double
    counted either.
    """

    def __init__(self, clock=time.perf_counter, sizes=SIZES):
        self.clock = clock
        self.sizes = sizes
        self.stats = {}
        self.work = {}
        self.missing = []
        self._stack = []   # child seconds accumulated per open span
        self._active = {}  # name -> open spans of that name
        self._patches = []

    def wrap(self, name, fn):
        clock, stack, active = self.clock, self._stack, self._active
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        active.setdefault(name, 0)
        size = self.sizes.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if not active[name]:
                    stat[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if size is not None:
                for key, n in size(args, kwargs, result).items():
                    self.work[f"{name}.{key}"] = self.work.get(f"{name}.{key}", 0) + n
            return result

        return traced

    def install(self, modules, seams=SEAMS):
        """Wrap every seam of ``modules`` (short name -> module object).

        A seam whose attribute no longer exists is recorded in
        ``missing`` instead of raising, so a rename shows in the report.
        """
        for mod_name, fn_names in seams.items():
            module = modules[mod_name]
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(module, fn_name, self.wrap(name, original))
                self._patches.append((module, fn_name, original))

    def uninstall(self):
        while self._patches:
            module, fn_name, original = self._patches.pop()
            setattr(module, fn_name, original)
