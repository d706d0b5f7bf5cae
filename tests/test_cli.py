import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scl
from scl import cli, currents, graphs, mcg

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--no-meta", *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_fold(capsys):
    code, payload = run_json(capsys, "fold", "--gens", "aa,b")
    assert code == 0
    assert payload["vertices"] == 2
    assert len(payload["edges"]) == 3
    assert payload["rank"] == 2
    assert payload["index"] is None


def test_fold_parse_error(capsys):
    code, _ = run_cli(capsys, "fold", "--gens", "a&&b")
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    ("low-index --rank 2 --k 9", 4, "resource cap: index 9 above cap 8"),
    ("--max-index 0 low-index --rank 2 --k 3", 2, "--max-index must be positive"),
    ("--max-ball 0 orbit-count --seed 1:a --L 5", 2, "--max-ball must be positive"),
    ("fold --gens ,", 2, "no generators in ','"),
    ("orbit-count --seed 1:a --L 5 --functional 1,2,3", 2,
     "bad functional '1,2,3'; expected lsc|area|la|alpha,beta"),
    ("orbit-count --seed 1:a --L 5 --functional x,1", 2, "bad functional weights in 'x,1'"),
    ("area --current 1", 2, "bad current term '1'; expected weight:gens"),
    ("area --current ;", 2, "empty current literal"),
    # 1e-400 is a positive Fraction whose float is 0.0: alpha = 0, refused up front
    ("--max-ball 2000 orbit-count --seed 1:aa,b --functional 1e-400,0 --L 40 --grid 2", 2,
     "with alpha = 0 every element of this orbit has value 0.0 <= margin * L, "
     "so the ball would be the whole infinite orbit"),
])
def test_error_exits(capsys, argv, code, message):
    assert cli.run(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"scl: {message}\n")


def test_boundary(capsys):
    code, payload = run_json(capsys, "boundary", "--gens", "aa,b")
    assert code == 0
    assert payload["euler_char"] == -1
    assert payload["genus"] == 1
    assert payload["cycles"] == [{"class": "aabAAB", "kind": "geodesic", "power": 1}]


def test_boundary_is_independent_of_the_presentation(capsys):
    # two conjugate presentations of one rank-3 class with two boundary cycles
    code, out = run_cli(capsys, "--no-meta", "boundary", "--gens", "BBaABbA,AAAaBAa,baABAAA")
    assert code == 0
    code, conjugate = run_cli(capsys, "--no-meta", "boundary", "--gens", "BAAAb,BABAb,BaBBAAb")
    assert code == 0
    assert conjugate == out


def test_area_and_length(capsys):
    code, payload = run_json(capsys, "area", "--current", "1:aa,b")
    assert code == 0
    assert payload["chi"] == "-1"
    code, payload = run_json(capsys, "length", "--word", "a")
    assert code == 0
    assert payload["trace"] == 3
    assert payload["type"] == "hyperbolic"
    code, payload = run_json(capsys, "length", "--current", "1:a")
    assert code == 0
    assert payload["lsc"] == pytest.approx(1.9248473002384139, rel=1e-12)
    code, _ = run_cli(capsys, "length")
    assert code == 2


def test_scc_count(capsys):
    code, out = run_cli(capsys, "--no-meta", "scc-count", "--L", "4", "--grid", "2")
    assert code == 0
    assert out.splitlines() == ["L,count", "2.0,3", "4.0,6"]


def test_mlz_count(capsys):
    code, out = run_cli(capsys, "--no-meta", "mlz-count", "--L", "4", "--grid", "1")
    assert code == 0
    assert out.splitlines() == ["L,count", "4.0,9"]


def test_orbit_count(capsys):
    code, out = run_cli(capsys, "--no-meta", "orbit-count", "--seed", "1:a",
                        "--L", "4", "--grid", "2")
    assert code == 0
    assert out.splitlines() == [
        "L,count,frontier_exhausted", "2.0,3,True", "4.0,6,True"]


def test_orbit_count_cap_exit(capsys):
    code, out = run_cli(capsys, "--no-meta", "--max-ball", "4", "orbit-count",
                        "--seed", "1:a", "--L", "4", "--grid", "2")
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "L,count,frontier_exhausted"
    assert all(line.endswith("False") for line in lines[1:])


def test_orbit_count_reports_a_cap_hit_on_stderr(capsys):
    # the cap is hit in the walk that finds the fiber of <a>, which explores
    # up to 1.5 times the seed's value 1.92485, not 1.5 * 8
    code = cli.run(["--no-meta", "--max-ball", "5", "orbit-count", "--seed", "1:a",
                    "--L", "8", "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out.splitlines() == [
        "L,count,frontier_exhausted", "4.0,6,False", "8.0,6,False"]
    assert captured.err == ("scl: resource cap: orbit ball exceeded cap of 5 elements: "
                            "seen 6, explored 3, frontier 1, largest value explored 1.92485\n")


def test_a_cap_hit_names_the_frontier_the_walk_left(capsys, torus):
    # an index-6 cover has zero boundary image, so its orbit of 120 classes
    # is walked on subgroup classes, one twist action per step.  Every class
    # has the same value, so the walk explores them in the order seen, and
    # when the 101st is seen it has begun to explore its parent and every
    # class before it: the rest of the 101 are queued
    seed = "1:a,baB,Baaab,BAbaBab,bbb,BabAb,BAbbab"
    code = cli.run(["--no-meta", "--max-ball", "100", "orbit-count", "--seed", seed,
                    "--functional", "la", "--L", "40", "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out.splitlines()[-1] == "40.0,101,False"
    orbit = mcg._Orbit(currents.parse_current(seed, torus), (1, 1), 40.0, 1.5,
                       surface=torus, twists=None, cap=None, mode="eta")
    records, tree, frontier = orbit.walk(40.0)
    assert (len(records), frontier) == (120, None)
    seen = list(records)
    queued = 101 - (seen.index(tree[seen[100]][0]) + 1)
    assert queued == 41
    assert captured.err == ("scl: resource cap: orbit ball exceeded cap of 100 elements: "
                            f"seen 101, explored 101, frontier {queued}, "
                            "largest value explored 37.6991\n")


def test_orbit_count_checks_grid_before_the_ball(capsys, monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("orbit_ball called before the grid was checked")

    monkeypatch.setattr(mcg, "orbit_ball", no_ball)
    # no point at all, and points that overflow past the largest float
    for L, points in (("40", "0"), ("1e308", "20")):
        code, out = run_cli(capsys, "--no-meta", "orbit-count", "--seed", "1:aa,b",
                            "--L", L, "--grid", points)
        assert (L, code, out) == (L, 2, "")


def test_a_grid_ends_on_its_limit(capsys):
    # 20.3 * 13 / 13 and 0.1 * 3 / 3 round above the limit they came from
    cases = [("orbit-count", "--seed", "1:aa,b", "--L", "20.3", "--grid", "13"),
             ("scc-count", "--L", "20.3", "--grid", "13"),
             ("mlz-count", "--L", "0.1", "--grid", "3")]
    for argv in cases:
        code, out = run_cli(capsys, "--no-meta", *argv)
        assert (argv, code) == (argv, 0)
        assert out.splitlines()[-1].startswith(argv[-3] + ","), argv


def test_non_finite_limits_exit_2(capsys):
    cases = [
        ("orbit-count", "--seed", "1:aa,b", "--L", "40", "--margin", "nan"),
        ("orbit-count", "--seed", "1:aa,b", "--L", "nan"),
        ("fibers", "--seed", "1:aa,b", "--L", "nan"),
        ("scc-count", "--L", "nan"),
        ("mlz-count", "--L", "nan"),
        ("scc-count", "--L", "inf"),
    ]
    for argv in cases:
        code, out = run_cli(capsys, "--no-meta", *argv)
        assert (argv, code, out) == (argv, 2, "")


def test_fibers(capsys):
    code, payload = run_json(capsys, "fibers", "--seed", "1:a", "--L", "4")
    assert code == 0
    assert payload["histogram"] == {"1": 6}


def test_fibers_cap_exit(capsys):
    code = cli.run(["--no-meta", "--max-ball", "50", "fibers",
                    "--seed", "1:aa,b", "--L", "30"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 4
    assert payload == {"L": 30.0, "ball_size": payload["ball_size"],
                       "frontier_exhausted": False}
    assert payload["ball_size"] > 0
    assert captured.err == ("scl: resource cap: orbit ball exceeded cap of 50 elements: "
                            "seen 52, explored 52, frontier 26, "
                            "largest value explored 13.8433\n")


def test_low_index(capsys):
    code, payload = run_json(capsys, "low-index", "--rank", "2", "--k", "2")
    assert code == 0
    assert payload["count"] == 3
    assert all(g["index"] == 2 for g in payload["subgroups"])
    # generators are named by letter, so there is no 27th one to print
    code, out = run_cli(capsys, "--no-meta", "low-index", "--rank", "27", "--k", "1")
    assert (code, out) == (2, "")


def test_verify_example(capsys):
    code, payload = run_json(capsys, "verify-example")
    assert code == 0
    assert payload["ok"] is True
    assert all(payload["checks"].values())


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "--no-meta", "scc-count", "--L", "6", "--grid", "3")
    _, out2 = run_cli(capsys, "--no-meta", "scc-count", "--L", "6", "--grid", "3")
    assert out1 == out2


def test_meta_header_present_by_default(capsys):
    code, out = run_cli(capsys, "scc-count", "--L", "2", "--grid", "1")
    assert code == 0
    assert out.startswith("# scl scc-count")


def test_meta_names_the_version_and_the_parameters(capsys):
    code, out = run_cli(capsys, "--max-ball", "5000", "orbit-count", "--seed", "1:aa,b",
                        "--L", "8", "--grid", "2")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith(f"# scl orbit-count surface=modular-torus version={scl.__version__} ")
    for field in ('seed="1:aa,b"', 'functional="lsc"', "L=8.0", "margin=1.5", "grid=2",
                  'mode="eta"', "max_ball=5000", "generated="):
        assert f" {field}" in header, field
    code, out = run_cli(capsys, "fibers", "--seed", "1:a", "--L", "6")
    meta = json.loads(out)["meta"]
    assert code == 0 and meta["version"] == scl.__version__
    assert meta["params"] == {"seed": "1:a", "functional": "lsc", "L": 6.0, "margin": 1.5,
                              "max_ball": mcg.DEFAULT_BALL_CAP}
    code, out = run_cli(capsys, "--max-index", "7", "low-index", "--rank", "2", "--k", "2")
    assert json.loads(out)["meta"]["params"] == {"rank": 2, "k": 2, "max_index": 7}
    code, out = run_cli(capsys, "scc-count", "--L", "4", "--grid", "2")
    assert " max_" not in out.splitlines()[0] and " grid=2 " in out.splitlines()[0]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "--no-meta", "--out", str(target),
                        "scc-count", "--L", "4", "--grid", "2")
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "4.0,6"


def test_surface_file(tmp_path, capsys):
    config = {
        "name": "copy",
        "genus": 1,
        "cusps": 1,
        "ribbon_order": ["a+", "b+", "a-", "b-"],
        "peripherals": ["abAB"],
        "matrices": {"a": [[1, 1], [1, 2]], "b": [[1, -1], [-1, 2]]},
    }
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(config))
    code, payload = run_json(capsys, "--surface", str(path), "length", "--word", "a")
    assert code == 0
    assert payload["trace"] == 3

    config["matrices"]["a"] = [[2, 0], [0, 1]]
    path.write_text(json.dumps(config))
    code, _ = run_cli(capsys, "--surface", str(path), "length", "--word", "a")
    assert code == 3

    config["matrices"]["a"] = [[1, 1], [1, 2]]
    config["peripherals"] = ["abcABC"]
    path.write_text(json.dumps(config))
    code, _ = run_cli(capsys, "--surface", str(path), "length", "--word", "a")
    assert code == 3

    code, _ = run_cli(capsys, "--surface", str(tmp_path / "nope.json"),
                      "length", "--word", "a")
    assert code == 2

    # the dyadic conjugate (by diag(2, 1/2)) takes the float path, exact == False,
    # and on these censuses its traces equal the integer ones, so every golden
    # output does too, except the float trace that ``length --word`` prints.
    # The ninefold conjugate (by diag(3, 1/3)) has 1/9 in its matrices, so its
    # float products move with the letter order; its golden outputs match too
    cases = [c for c in json.loads(GOLDEN.read_text()) if "--word" not in c["argv"]]
    assert len(cases) == 17
    for name in ("dyadic_torus.json", "ninefold_torus.json"):
        for case in cases:
            got = run_cli(capsys, "--surface", str(GOLDEN.parent / name), *case["argv"])
            assert (name, case["argv"], *got) == (name, case["argv"], case["exit"], case["stdout"])

    # every malformed shape is an input error, never a traceback or a misreading
    config["peripherals"] = ["abAB"]
    twists = [{"images": ["a", "ab"]}, {"images": ["a", "Ab"]},
              {"images": ["ab", "b"]}, {"images": ["aB", "b"]}]
    path.write_text(json.dumps({**config, "mcg_generators": twists}))
    code, out = run_cli(capsys, "--no-meta", "--surface", str(path), "orbit-count",
                        "--seed", "1:a", "--L", "4", "--grid", "2")
    assert (code, out.splitlines()[-1]) == (0, "4.0,6,True")
    # without the inverses the ball misses elements: 12 instead of 18 at L = 8
    path.write_text(json.dumps({**config, "mcg_generators": [twists[0], twists[2]]}))
    code, out = run_cli(capsys, "--no-meta", "--surface", str(path), "orbit-count",
                        "--seed", "1:a", "--L", "8", "--grid", "2")
    assert (code, out) == (3, "")
    malformed = [
        {**config, "genus": "x"},
        {**config, "genus": True},
        {**config, "matrices": {**config["matrices"], "a": [[1, 1]]}},
        {**config, "matrices": {**config["matrices"], "a": [[1, 1, 0], [1, 2, 0]]}},
        {**config, "matrices": "ab"},
        [config],
        {**config, "peripherals": "abAB"},
        {**config, "ribbon_order": [1, 2, 3, 4]},
        {**config, "mcg_generators": [5]},
        {**config, "mcg_generators": [*twists[:3], {"images": "ab"}]},
        {**config, "mcg_generators": [*twists[:3], {"images": ["a", "ab"], "label": 7}]},
        {**config, "matrices": {**config["matrices"], "c": [[5, 0], [0, 7]], "zz": "junk"}},
        {**config, "mcg_generator": [twists[0], twists[2]]},
        {**config, "mcg_generators": [*twists[:3], {**twists[3], "lable": "tb'"}]},
        {**config, "name": None},
        {**config, "mcg_generators": None},
        {**config, "mcg_generators": [*twists[:3], {**twists[3], "label": None}]},
    ]
    for bad in malformed:
        path.write_text(json.dumps(bad))
        code, out = run_cli(capsys, "--no-meta", "--surface", str(path), "orbit-count",
                            "--seed", "1:a", "--L", "4", "--grid", "2")
        assert (bad, code, out) == (bad, 2, "")


@pytest.mark.parametrize("command", ["scc-count", "mlz-count"])
def test_slope_walk_cap_is_a_resource_error(monkeypatch, capsys, command):
    # the slope walk keeps 234 slopes at L = 30; past the cap it stops
    monkeypatch.setattr(mcg, "DEFAULT_BALL_CAP", 50)
    code = cli.run(["--no-meta", command, "--L", "30", "--grid", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert re.fullmatch(r"scl: resource cap: slope walk exceeded cap of 50 slopes: "
                        r"kept 51, longest kept [0-9.]+\n", captured.err)


def test_enumeration_past_the_cap_is_a_resource_error(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "DEFAULT_BALL_CAP", 100)
    code = cli.run(["--no-meta", "low-index", "--rank", "2", "--k", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == ("scl: resource cap: the rank-2 free group has 461 subgroups of "
                            "index 5, above cap of 100 covers\n")


def test_oracle_refusal_is_a_configuration_error(tmp_path, capsys):
    # b re-marked as a^5 b: the surface validates, but its root triple is no
    # local minimum of the trace tree, so the slope oracle refuses it
    config = json.loads((Path(__file__).parent / "data" / "modular_torus.json").read_text())
    a, b = config["matrices"]["a"], config["matrices"]["b"]
    for _ in range(5):
        b = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    config["matrices"]["b"] = b
    path = tmp_path / "a5b.json"
    path.write_text(json.dumps(config))
    assert cli.run(["--surface", str(path), "--no-meta", "verify-example"]) == 0
    capsys.readouterr()
    code = cli.run(["--surface", str(path), "--no-meta", "scc-count", "--L", "4", "--grid", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("scl: surface configuration error: ")
    assert "local minimum" in err


def test_surface_file_with_a_huge_genus_is_an_input_error(tmp_path, capsys):
    # 2g + r - 1 = 2,000,000 letters: exit 2 with the rank named, no traceback
    config = json.loads((Path(__file__).parent / "data" / "modular_torus.json").read_text())
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**config, "genus": 1000000}))
    code = cli.run(["--surface", str(path), "--no-meta", "verify-example"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "scl: genus/cusps: 2g + r - 1 = 2000000 is outside [1, 26]\n"
    assert "Traceback" not in err


def test_surface_file_refuses_an_orientation_reversing_twist(tmp_path, capsys):
    # the swap a <-> b is its own inverse and sends the cusp class to its
    # inverse; accepted beside the built-in twists, it doubled the count of
    # the chiral seed 1:aabAbb at L = 25 from 282 to 564
    config = json.loads((GOLDEN.parent / "modular_torus.json").read_text())
    twists = [{"images": ["a", "ab"]}, {"images": ["a", "Ab"]},
              {"images": ["ab", "b"]}, {"images": ["aB", "b"]}]
    path = tmp_path / "surface.json"
    argv = ("--no-meta", "--surface", str(path), "orbit-count",
            "--seed", "1:aabAbb", "--L", "25", "--grid", "1")
    path.write_text(json.dumps({**config, "mcg_generators": twists}))
    assert run_cli(capsys, *argv) == (0, "L,count,frontier_exhausted\n25.0,282,True\n")
    path.write_text(json.dumps(
        {**config, "mcg_generators": [*twists, {"images": ["b", "a"], "label": "swap"}]}))
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "scl: automorphism does not preserve the cusp set\n")


def test_surface_file_rejects_the_annulus(tmp_path, capsys):
    # rank and ribbon check out, but 2g - 2 + r = 0: no hyperbolic structure
    config = {"genus": 0, "cusps": 2, "ribbon_order": ["a+", "a-"],
              "peripherals": ["a", "A"], "matrices": {"a": [[1, 1], [0, 1]]}}
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(config))
    code, _ = run_cli(capsys, "--surface", str(path), "length", "--word", "a")
    assert code == 3


def test_cli_output_is_byte_stable(capsys):
    """``--no-meta`` stdout and exit codes of the README examples and three
    more commands, recorded in ``data/cli_golden.json``.  Regenerate that
    file only in a change that means to alter output, and say so."""
    for case in json.loads(GOLDEN.read_text()):
        code, out = run_cli(capsys, *case["argv"])
        assert (case["argv"], code, out) == (case["argv"], case["exit"], case["stdout"])


def test_module_entry_point_runs_main():
    # the console script calls cli.main, which the in-process tests skip
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "scl.cli", "--no-meta", "verify-example"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_version_is_the_pyproject_version():
    # read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    assert scl.__version__ == re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
