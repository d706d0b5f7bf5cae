"""Command-line entry point.

Subcommands mirror the library modules: fold | boundary | area | length |
orbit-count | scc-count | mlz-count | fibers | low-index | verify-example.
Output is JSON or CSV on stdout (or --out); exit codes are 0 success,
2 input error, 3 surface configuration error (a surface that fails
validation, that the slope oracle refuses, or that has no twist
generators), 4 resource cap hit (partial results are still emitted,
flagged as not frontier-exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, census, currents, geometry, graphs, mcg, words
from .errors import ConfigError, InputError, ResourceLimitError, SclError


def _letter(lab: int) -> str:
    return words._ALPHABET[lab]


def _parse_gens(text: str):
    gens = [words.word_from_str(w.strip()) for w in text.split(",") if w.strip()]
    if not gens:
        raise InputError(f"no generators in {text!r}")
    return gens


def _graph_payload(g: graphs.CoreGraph) -> dict:
    return {
        "vertices": g.vertex_count,
        "edges": [[u, v, _letter(lab)] for u, v, lab in g.edges],
        "rank": g.cycle_rank,
        "index": graphs.index(g),
        "basepoint": g.basepoint,
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# options of the whole program, which _meta reports only where they apply
_CAPS = {"orbit-count": "max_ball", "fibers": "max_ball", "low-index": "max_index"}
_TOP = ("surface", "out", "no_meta", "max_ball", "max_index", "subcommand", "fn")


def _meta(args) -> dict:
    """How the output was made: the JSON ``meta`` and the CSV ``#`` header.

    It names the package version and the command's parsed parameters: its
    own options, and the cap in force where the command has one.
    """
    params = {k: v for k, v in vars(args).items() if k not in _TOP}
    if args.subcommand in _CAPS:
        params[_CAPS[args.subcommand]] = getattr(args, _CAPS[args.subcommand])
    return {
        "surface": args.surface.name,
        "command": args.subcommand,
        "version": __version__,
        "params": params,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _emit_json(args, payload: dict) -> None:
    if not args.no_meta:
        payload = {"meta": _meta(args), **payload}
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _emit_csv(args, header, rows) -> None:
    lines = []
    if not args.no_meta:
        meta = _meta(args)
        fields = [f"surface={meta['surface']}", f"version={meta['version']}",
                  *(f"{k}={json.dumps(v)}" for k, v in meta["params"].items()),
                  f"generated={meta['generated']}"]
        lines.append(" ".join(["# scl", meta["command"], *fields]))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _emit(args, "\n".join(lines) + "\n")


def _cmd_fold(args):
    g = graphs.fold(_parse_gens(args.gens), rank=args.surface.rank)
    _emit_json(args, _graph_payload(g))
    return 0


def _cmd_boundary(args):
    h = graphs.subgroup_class(_parse_gens(args.gens), surface=args.surface)
    report = currents.boundary_report(h, args.surface)
    _emit_json(args, {
        "cycles": [{"class": str(c), "kind": kind, "power": power}
                   for c, kind, power in report.cycles],
        "euler_char": report.euler_char,
        "genus": report.genus,
    })
    return 0


def _cmd_area(args):
    eta = currents.parse_current(args.current, args.surface)
    value, chi = currents.area(eta)
    _emit_json(args, {"area": value, "chi": str(chi)})
    return 0


def _cmd_length(args):
    if (args.word is None) == (args.current is None):
        raise InputError("length takes exactly one of --word or --current")
    if args.word is not None:
        w = words.word_from_str(args.word)
        c = words.conj_class(w)
        kind = geometry.classify(w, args.surface)
        payload = {
            "word": args.word,
            "class": str(c),
            "trace": geometry.holonomy_trace(w, args.surface),
            "type": kind,
        }
        if kind == "hyperbolic":
            payload["length"] = geometry.geodesic_length(c, args.surface)
        _emit_json(args, payload)
    else:
        eta = currents.parse_current(args.current, args.surface)
        b = currents.boundary_projection(eta, args.surface)
        _emit_json(args, {
            "lsc": currents.length_gc(b, args.surface),
            "boundary": currents.multicurve_payload(b),
        })
    return 0


def _orbit_ball(args, **options):
    """The orbit ball of ``--seed``.  On a cap hit it is the partial ball,
    not frontier-exhausted, and the cap is reported on stderr."""
    eta = currents.parse_current(args.seed, args.surface)
    spec = currents.parse_functional(args.functional)
    try:
        return mcg.orbit_ball(eta, spec, args.L, margin=args.margin,
                              surface=args.surface, cap=args.max_ball, **options)
    except ResourceLimitError as exc:
        print(f"scl: resource cap: {exc}", file=sys.stderr)
        return exc.partial


def _cmd_orbit_count(args):
    grid = census.make_grid(args.L, args.grid)
    ball = _orbit_ball(args, mode=args.mode)
    table = census.count_by_length(ball, grid)
    rows = [(L, n, ball.frontier_exhausted) for L, n in table.rows]
    _emit_csv(args, ("L", "count", "frontier_exhausted"), rows)
    return 0 if ball.frontier_exhausted else 4


def _cmd_scc_count(args):
    table = census.scc_census(args.surface, args.L, census.make_grid(args.L, args.grid))
    _emit_csv(args, ("L", "count"), table.rows)
    return 0


def _cmd_mlz_count(args):
    table, _ = census.mlz_census(args.surface, args.L, census.make_grid(args.L, args.grid))
    _emit_csv(args, ("L", "count"), table.rows)
    return 0


def _cmd_fibers(args):
    ball = _orbit_ball(args)
    payload = {"L": args.L, "ball_size": ball.count_leq(args.L)}
    if ball.frontier_exhausted:
        hist = census.fiber_histogram(ball)
        payload["histogram"] = {str(size): n for size, n in sorted(hist.items())}
    else:
        payload["frontier_exhausted"] = False
    _emit_json(args, payload)
    return 0 if ball.frontier_exhausted else 4


def _cmd_low_index(args):
    if not 1 <= args.rank <= len(words._ALPHABET):
        raise InputError(f"--rank must be 1..26 (one letter per generator), got {args.rank}")
    covers = graphs.subgroups_of_index(args.rank, args.k, cap=args.max_index)
    _emit_json(args, {
        "rank": args.rank,
        "k": args.k,
        "count": len(covers),
        "subgroups": [_graph_payload(g) for g in covers],
    })
    return 0


def verify_example(surface):
    """Recheck the worked 4-index example: the twisted subgroup stays
    index 4 and non-conjugate, while every computable shadow agrees."""
    h_gens = _parse_gens("aaaa,ab,bb,aaba,aaBa")
    phi_gens = _parse_gens("aaaa,aab,abab,aaaba,aaB")
    twist = mcg.mapping_class([words.word_from_str("a"), words.word_from_str("ab")],
                              surface, label="ta")
    h = graphs.subgroup_class(h_gens, surface=surface)
    phi_h_listed = graphs.subgroup_class(phi_gens, surface=surface)
    phi_h_acted = mcg.act_on_subgroup(twist, h, surface)

    b_h = currents.subgroup_boundary(h, surface)
    b_phi = currents.subgroup_boundary(phi_h_listed, surface)
    checks = {
        "index_h_is_4": graphs.index(graphs.from_key(h.key)) == 4,
        "index_phi_h_is_4": graphs.index(graphs.from_key(phi_h_listed.key)) == 4,
        "twist_image_matches_listed": phi_h_acted == phi_h_listed,
        "classes_differ": h != phi_h_listed,
        "boundary_image_h_zero": b_h.is_zero(),
        "boundary_image_phi_h_zero": b_phi.is_zero(),
        "chi_h_is_minus_4": h.euler_char == -4,
        "chi_phi_h_is_minus_4": phi_h_listed.euler_char == -4,
    }
    return all(checks.values()), checks


def _cmd_verify_example(args):
    ok, checks = verify_example(args.surface)
    _emit_json(args, {"ok": ok, "checks": checks})
    return 0 if ok else 1


def _build_parser():
    top = argparse.ArgumentParser(
        prog="scl",
        description="Subgroup and curve censuses on cusped hyperbolic surfaces.")
    top.add_argument("--surface", metavar="FILE",
                     help="surface config JSON (default: built-in modular torus)")
    top.add_argument("--out", metavar="FILE", help="write output to FILE")
    top.add_argument("--no-meta", action="store_true",
                     help="suppress the timestamp header for byte-stable output")
    top.add_argument("--max-ball", type=int, default=mcg.DEFAULT_BALL_CAP,
                     help="orbit ball cap")
    top.add_argument("--max-index", type=int, default=graphs.DEFAULT_INDEX_CAP,
                     help="low-index enumeration cap")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fold", help="fold generators into a core graph")
    p.add_argument("--gens", required=True, help='comma-separated words, e.g. "aa,b"')
    p.set_defaults(fn=_cmd_fold)

    p = sub.add_parser("boundary", help="boundary cycles of the thickened core graph")
    p.add_argument("--gens", required=True)
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("area", help="area and Euler characteristic of a current")
    p.add_argument("--current", required=True, help='e.g. "1:aa,b;1/2:a"')
    p.set_defaults(fn=_cmd_area)

    p = sub.add_parser("length", help="geodesic length of a word or lsc of a current")
    p.add_argument("--word")
    p.add_argument("--current")
    p.set_defaults(fn=_cmd_length)

    for name in ("orbit-count", "fibers"):
        p = sub.add_parser(name, help="orbit-ball census" if name == "orbit-count"
                           else "fiber sizes of the boundary projection")
        p.add_argument("--seed", required=True, help="current literal")
        p.add_argument("--functional", default="lsc", help="lsc|area|la|alpha,beta")
        p.add_argument("--L", type=float, required=True)
        p.add_argument("--margin", type=float, default=1.5)
        if name == "orbit-count":
            p.add_argument("--grid", type=int, default=20)
            p.add_argument("--mode", choices=("eta", "J"), default="eta")
            p.set_defaults(fn=_cmd_orbit_count)
        else:
            p.set_defaults(fn=_cmd_fibers)

    p = sub.add_parser("scc-count", help="simple closed geodesic census (slope oracle)")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--grid", type=int, default=30)
    p.set_defaults(fn=_cmd_scc_count)

    p = sub.add_parser("mlz-count", help="integer simple multicurve census")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--grid", type=int, default=30)
    p.set_defaults(fn=_cmd_mlz_count)

    p = sub.add_parser("low-index", help="all subgroups of a given finite index")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_low_index)

    p = sub.add_parser("verify-example", help="recheck the worked 4-index twist example")
    p.set_defaults(fn=_cmd_verify_example)
    return top


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # from here on ``args.surface`` is the loaded surface, not its file name
        if args.surface:
            args.surface = geometry.validated(geometry.surface_from_file(args.surface))
        else:
            args.surface = geometry.modular_torus()
        if args.max_ball <= 0:
            raise InputError("--max-ball must be positive")
        if args.max_index <= 0:
            raise InputError("--max-index must be positive")
        return args.fn(args)
    except ConfigError as exc:
        print(f"scl: surface configuration error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"scl: resource cap: {exc}", file=sys.stderr)
        return 4
    except (SclError, OSError, json.JSONDecodeError) as exc:
        print(f"scl: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
