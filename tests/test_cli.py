import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reconset

from reconset.cli import cli, main
from reconset.dyadic import Dyadic
from reconset.intervals import IntervalSet, Window
from reconset.io import interval_set_artifact, load_interval_set, read_json, write_json
from reconset.verify import MAX_LISTED_COLLISIONS


def run(argv):
    return main(list(argv))


def test_construct_interval_union_happy_path(tmp_path):
    out = tmp_path / "T.json"
    code = run(
        [
            "construct", "interval-union",
            "--lengths", "1",
            "--window", "0", "8",
            "--rho", "1/16",
            "-o", str(out),
        ]
    )
    assert code == 0
    T, window = load_interval_set(out)
    assert len(T) > 0
    assert window is not None
    assert Dyadic(0) < T.measure()


def test_verify_monotonicity_exit_zero(tmp_path):
    out = tmp_path / "T.json"
    rep = tmp_path / "rep.json"
    assert run(
        ["construct", "interval-union", "--lengths", "1",
         "--window", "0", "8", "--rho", "1/16", "-o", str(out)]
    ) == 0
    code = run(
        ["verify", "monotonicity", "--test", str(out),
         "--shape", "[0,1]", "--grid", "0", "6", "1/16", "-o", str(rep)]
    )
    assert code == 0
    obj = read_json(rep)
    assert obj["passed"] is True
    assert obj["min_increment"] > 0


def test_verify_monotonicity_detects_violation(tmp_path):
    bad = tmp_path / "bad.json"
    write_json(bad, interval_set_artifact(IntervalSet([(0, 20)])))
    code = run(
        ["verify", "monotonicity", "--test", str(bad),
         "--shape", "[0,1]", "--grid", "0", "6", "1/2"]
    )
    assert code == 2  # translation-invariant test set: zero increments


@pytest.mark.parametrize(
    "argv, need",
    [
        (["verify", "monotonicity", "--shape", "[0,1]", "--grid", "0", "10", "1/16"], "[0, 11)"),
        (["verify", "monotonicity", "--shape", "[0,1]", "--grid", "-3", "2", "1/16"], "[-3, 3)"),
        (["verify", "injectivity", "--length", "1", "2", "1/8", "--x", "6", "9", "1/16"],
         "[6, 11)"),
        (["verify", "injectivity", "--length", "1", "2", "1/8", "--x", "20", "21", "1/16"],
         "[20, 23)"),
    ],
    ids=["monotonicity-above", "monotonicity-below", "injectivity-across", "injectivity-beyond"],
)
def test_exact_verifiers_refuse_queries_outside_window(tmp_path, capsys, argv, need):
    # the set is cut off at its window [0, 8): past the edge it reads as empty
    T = tmp_path / "T.json"
    assert run(["construct", "interval-union", "--lengths", "1",
                "--window", "0", "8", "--rho", "1/16", "-o", str(T)]) == 0
    capsys.readouterr()
    flag = "--test" if argv[1] == "monotonicity" else "--tests"
    assert run([*argv, flag, str(T)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: instances need {need}, outside the window of {T} [0, 8)")


def test_usage_error_exit_one(tmp_path):
    assert run(["construct", "interval-union", "--lengths", "1", "--window", "0", "8"]) == 1
    assert run(["no-such-command"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["construct"],
        ["no-such-command"],
        ["construct", "no-such-command"],
        ["report", "--no-such-option", "x"],
        ["report", "--input"],
        ["report"],
        ["verify", "monotonicity", "--test", "T.json", "--shape", "[0,1]", "--grid", "0", "6"],
        ["report", "--input", "missing.json"],
        ["verify", "monotonicity", "--test", "missing.json", "--shape", "[0,1]",
         "--grid", "0", "6", "1/16"],
        ["verify", "injectivity", "--x", "0", "1", "1/4", "--length", "1", "2", "1/2",
         "--tests", "T.json", "--tests", "missing.json"],
        ["search", "two-set-counterexample", "--A", "missing.json", "--B", "T.json"],
        ["search", "two-set-counterexample", "--A", "T.json", "--B", "missing.json"],
        ["random", "sample", "--n", "x", "--g", "4", "--p", "0.5", "-o", "g.npz"],
        ["report", "--input", "T.json", "extra"],
    ],
    ids=["no-arguments", "group-without-command", "unknown-command", "unknown-subcommand",
         "unknown-option", "option-without-value", "missing-option", "short-nargs",
         "missing-input", "missing-test", "missing-tests", "missing-A", "missing-B",
         "non-integer-n", "extra-argument"],
)
def test_usage_errors_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "T.json", interval_set_artifact(IntervalSet([(0, 8)])))
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith("usage error: "), out.err
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "g.npz").exists()


def _parsed(monkeypatch, argv):
    """The keyword arguments that argv hands to its command's body."""
    cmd = cli
    for word in argv:
        if not hasattr(cmd, "commands"):
            break
        cmd = cmd.commands[word]
    got = {}
    monkeypatch.setattr(cmd, "callback", lambda **kwargs: got.update(kwargs))
    assert run(argv) == 0
    return sorted((k, repr(v)) for k, v in got.items())


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["random", "sample", "--n=16", "--n", "64", "--g", "4", "--g=8", "--p", "0.5",
          "--p", "1", "--box=0", "3", "--seed=7", "--output=g.npz", "--summary", "g.json"],
         dict(n_=(16, 64), g_=(4, 8), p_=(0.5, 1.0), box=(0, 3), seed=7,
              output="g.npz", summary="g.json")),
        (["random", "sample", "--n", "16", "--g", "4", "--p", "0.5", "-og.npz"],
         dict(n_=(16,), g_=(4,), p_=(0.5,), box=(0, 1), seed=0, output="g.npz", summary=None)),
        (["construct", "interval-union", "--lengths", "1,3/2", "--lengths=2",
          "--window", "-1/2", "1/2", "--rho", "-1/16", "-o", "T.json"],
         dict(lengths=("1,3/2", "2"), window=("-1/2", "1/2"), rho="-1/16", output="T.json")),
        (["construct", "translate", "--profile", "tent", "--window", "-4", "4", "-o", "Tt.json"],
         dict(profile="tent", window=("-4", "4"), resolution=64, rate=0.5, output="Tt.json")),
        (["construct", "magnify", "--profile", "disk", "--window", "-2", "2", "--a-max", "4",
          "--resolution=16", "-o", "Tm.json"],
         dict(profile="disk", window=("-2", "2"), a_max=4.0, resolution=16, output="Tm.json")),
        (["radon", "--shape", "[0,1]", "--theta", "1", "-o", "p.json"],
         dict(shape="[0,1]", theta="1", resolution=256, output="p.json", emit_plot_data=None)),
        (["verify", "monotonicity", "--test", "T.json", "--shape", "[0,1]",
          "--grid", "0", "6", "-1/16"],
         dict(test_path="T.json", shape="[0,1]", grid=("0", "6", "-1/16"), output=None,
              emit_plot_data=None)),
        (["verify", "injectivity", "--x", "0", "1", "1/4", "--length=1", "2", "1/2",
          "--tests=T.json", "--tests", "T.json", "-o", "r.json"],
         dict(x_=("0", "1", "1/4"), l_=("1", "2", "1/2"), tests=("T.json", "T.json"),
              output="r.json")),
        (["search", "two-set-counterexample", "--A", "T.json", "--B=T.json", "--tol", "1"],
         dict(a_path="T.json", b_path="T.json", min_length="1", tol=1.0, output=None)),
        (["report", "--input=T.json", "--csv", "T.csv"],
         dict(input_path="T.json", csv_path="T.csv")),
    ],
    ids=["random-sample", "random-sample-defaults", "interval-union", "translate", "magnify",
         "radon", "monotonicity", "injectivity", "search", "report"],
)
def test_options_parse_as_declared(tmp_path, monkeypatch, argv, expected):
    # values that look like options (-1/2) are taken as values; --opt=value
    # and repeated options parse; types and defaults are the declared ones
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "T.json", interval_set_artifact(IntervalSet([(0, 8)])))
    assert _parsed(monkeypatch, argv) == sorted((k, repr(v)) for k, v in expected.items())


def test_negative_values_reach_the_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "interval-union", "--lengths", "1", "--window", "-1/2", "1/2",
                "--rho", "1/16", "-o", "T.json"]) == 0
    assert capsys.readouterr().out == "wrote T.json: 32 intervals, measure 1/2^4\n"
    # a negative grid step is refused by the command, not by the parser
    assert run(["verify", "monotonicity", "--test", "T.json", "--shape", "[0,1]",
                "--grid", "0", "6", "-1/16"]) == 1
    assert capsys.readouterr().err == "error: grid step must be positive, got -1/2^4\n"


def test_search_counterexample(tmp_path):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    pair = tmp_path / "pair.json"
    write_json(a, interval_set_artifact(IntervalSet([(0, 1), (2, 5)])))
    write_json(b, interval_set_artifact(IntervalSet([(1, 3)])))
    code = run(
        ["search", "two-set-counterexample", "--A", str(a), "--B", str(b),
         "--min-length", "1", "--tol", "1e-9", "-o", str(pair)]
    )
    assert code == 0
    obj = read_json(pair)
    assert obj["kind"] == "counterexample"
    assert obj["a_discrepancy"] == obj["b_discrepancy"] == 0
    assert obj["rule"] in ("translation", "x-gap", "y-gap", "y-fold", "x-fold")


def test_radon_and_report_csv(tmp_path):
    prof = tmp_path / "p.json"
    csv = tmp_path / "p.csv"
    code = run(
        ["radon", "--shape", '{"variant":"ball","center":[0,0],"radius":1}',
         "--theta", "1,0", "--resolution", "32", "-o", str(prof),
         "--emit-plot-data", str(csv)]
    )
    assert code == 0
    assert read_json(prof)["kind"] == "profile"
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "breakpoint,value"
    assert len(rows) > 30
    assert run(["report", "--input", str(prof)]) == 0


def test_random_sample_and_injectivity(tmp_path):
    grids = []
    for c in range(3):
        out = tmp_path / f"g{c}.npz"
        assert run(
            ["random", "sample", "--n", "1024", "--g", "32", "--p", "0.5",
             "--box", "0", "3", "--seed", str(100 + c), "-o", str(out)]
        ) == 0
        grids.append(str(out))
    args = ["verify", "injectivity", "--x", "0", "1", "1/4",
            "--length", "1", "2", "1/2"]
    for g in grids:
        args.extend(["--tests", g])
    code = run(args)
    assert code in (0, 2)  # separation or a detected collision, never a crash


def test_artifact_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["construct", "interval-union", "--lengths", "1,3/2",
            "--window", "0", "6", "--rho", "1/16"]
    assert run(argv + ["-o", str(out1)]) == 0
    assert run(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    T, _ = load_interval_set(out1)
    again = IntervalSet.from_json(json.loads(out1.read_text())["intervals"])
    assert T == again


def test_construct_translate_cli(tmp_path):
    out = tmp_path / "Tt.json"
    code = run(
        ["construct", "translate", "--profile", "tent",
         "--window", "-4", "4", "-o", str(out)]
    )
    assert code == 0
    obj = read_json(out)
    assert obj["certificate"]["kind"] == "translate"
    assert obj["certificate"]["shells"]


def test_snap_warning_on_decimal(tmp_path):
    out = tmp_path / "T.json"
    code = run(
        ["construct", "interval-union", "--lengths", "1",
         "--window", "0", "8", "--rho", "0.1", "-o", str(out)]
    )
    assert code == 0  # 0.1 snapped to a dyadic with a logged note


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "sample", "--n", "15", "--g", "1", "--p", "0.5", "-o", "x.npz"],
        ["random", "sample", "--n", "16", "--g", "4", "--p", "0.5", "--seed", "-3",
         "-o", "x.npz"],
        ["report", "--input", "inverted.json"],
    ],
    ids=["n-not-power-of-two", "negative-seed", "inverted-interval"],
)
def test_library_value_error_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inverted.json").write_text(
        '{"kind":"interval_set","intervals":[[3,0,1,0]]}'
    )
    assert run(argv) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("n", ["16", "4"], ids=["draws", "no-draws"])
def test_random_sample_seed_outside_64_bits_exits_one(tmp_path, capsys, seed, n):
    # --n 4 --g 4 makes one-cube cells: m_max = 0, so no level draws at all
    out = tmp_path / "x.npz"
    argv = ["random", "sample", "--n", n, "--g", "4", "--p", "0.5", "--seed", seed, "-o", str(out)]
    assert run(argv) == 1
    got = capsys.readouterr()
    assert got.err == f"error: seed {seed} is outside [0, 2**64)\n"
    assert got.out == "" and not out.exists()


def test_injectivity_report_byte_identical(tmp_path):
    T = tmp_path / "T.json"
    assert run(["construct", "interval-union", "--lengths", "1",
                "--window", "0", "8", "--rho", "1/16", "-o", str(T)]) == 0
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for rep in reports:
        assert run(["verify", "injectivity", "--x", "0", "1", "1/4",
                    "--length", "1", "1", "1", "--tests", str(T), "-o", str(rep)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def _limit_memory():
    # a runaway loop or allocation fails fast on the cap instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _python(*args, extra_env=(), **kwargs):
    """A fresh interpreter that imports reconset from this checkout."""
    src = str(Path(reconset.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env, **kwargs
    )


def _openblas_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_settings() -> list[dict]:
    """OpenBLAS picks its kernels for the CPU at run time, and numpy its SIMD
    loops: the default choice, three forced OpenBLAS cores, and every
    dispatched SIMD target masked."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    return [{}, *({"OPENBLAS_CORETYPE": core} for core in ("Prescott", "Haswell", "SkylakeX")),
            {"NPY_DISABLE_CPU_FEATURES": ",".join(__cpu_dispatch__)}]


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
def test_magnify_artifact_does_not_depend_on_the_cpu(tmp_path):
    # the artifact comes out the same under every setting
    artifacts = []
    for i, env in enumerate(_cpu_settings()):
        out = tmp_path / f"Tm{i}.json"
        p = _python("-m", "reconset.cli", "construct", "magnify", "--profile", "disk",
                    "--window", "-1", "1", "-o", str(out), extra_env=env)
        assert p.returncode == 0, (env, p.stderr)
        artifacts.append(out.read_bytes())
    assert all(a == artifacts[0] for a in artifacts), [hash(a) for a in artifacts]


# `reconset radon` of the polygon and the box, then the slab measures of the
# three shapes over a 5 x 5 grid of translations, printed as raw bytes
_OBLIQUE_SCRIPT = """
import json, sys
import numpy as np
from reconset.cli import main
from reconset.intervals import IntervalSet, Window
from reconset.shapes import Direction, SlabTestSet, intersection_measures, shape_from_json
theta, *specs = sys.argv[1:]
for i, spec in enumerate(specs[1:]):
    assert main(["radon", "--shape", spec, "--theta", theta, "-o", f"p{i}.json"]) == 0
V = SlabTestSet(Direction.of([float(t) for t in theta.split(",")]), IntervalSet([(0, 1)]), Window.of(-8, 8))
axis = np.linspace(-0.5, 0.5, 5)
x = np.stack([np.repeat(axis, 5), np.tile(axis, 5)], 1)
for spec in specs:
    v, e = intersection_measures(shape_from_json(json.loads(spec)), x, V)
    print(v.tobytes().hex(), e.tobytes().hex())
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
def test_oblique_projections_do_not_depend_on_the_cpu(tmp_path):
    # <x, theta> off the axes decides profile knots and slab offsets; where a
    # BLAS kernel computed it, fused multiply-adds changed their bits
    specs = ['{"variant":"ball","center":[0.3,-0.2],"radius":1}',
             '{"variant":"polygon","vertices":[[0.47,-0.12],[1.77,0.05],[1.57,0.81],[0.68,0.59]]}',
             '{"variant":"box","lo":[0.3,-0.2],"hi":[1.3,0.9]}']
    outputs = []
    for i, env in enumerate(_cpu_settings()):
        (out := tmp_path / str(i)).mkdir()
        p = _python("-c", _OBLIQUE_SCRIPT, f"1,{math.sqrt(2.0)!r}", *specs, extra_env=env, cwd=out)
        assert p.returncode == 0, (env, p.stderr)
        outputs.append([p.stdout, *((out / f"p{k}.json").read_bytes() for k in range(2))])
    assert all(o == outputs[0] for o in outputs), [[hash(x) for x in o] for o in outputs]


def _capped_cli_exits_one(*argv):
    p = _python("-m", "reconset.cli", *argv, preexec_fn=_limit_memory)
    assert p.returncode == 1
    assert p.stderr.startswith("error: ")
    assert "Traceback" not in p.stdout + p.stderr


@pytest.mark.parametrize("step", ["0", "-1/16"])
def test_nonpositive_grid_step_exits_one(tmp_path, step):
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(IntervalSet([(0, 8)])))
    _capped_cli_exits_one("verify", "monotonicity", "--test", str(T),
                          "--shape", "[0,1]", "--grid", "0", "6", step)


@pytest.mark.parametrize(
    "grid",
    [
        ["monotonicity", "--shape", "[0,1]", "--grid", "0", "6", "1/2^99999"],
        ["monotonicity", "--shape", "[0,1]", "--grid", "0", "6", "1/2^34359738368"],
        ["injectivity", "--x", "0", "1", "1/2^40", "--length", "1", "2", "1/8"],
    ],
    ids=["fine-exponent", "huge-exponent", "injectivity-product"],
)
def test_oversized_grid_exits_one(tmp_path, grid):
    # sized before any point is made: the parent ran out of memory or time
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(IntervalSet([(0, 8)])))
    flag = "--test" if grid[0] == "monotonicity" else "--tests"
    _capped_cli_exits_one("verify", *grid, flag, str(T))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "interval-union", "--lengths", "1", "--window", "0", "8",
         "--rho", "1/1048576"],
        ["construct", "interval-union", "--lengths", "1", "--window", "0", "1e999999999",
         "--rho", "1/16"],
        ["random", "sample", "--n", "1073741824", "--g", "64", "--p", "0.5", "--box", "0", "3"],
        ["radon", "--shape", '{"variant":"ball","center":[0,0],"radius":1}', "--theta", "1,0",
         "--resolution", "2000000000"],
        ["construct", "translate", "--profile", "disk", "--resolution", "2000000000",
         "--window", "-2", "2"],
    ],
    ids=["cell-shifts", "decimal-exponent", "grid-cubes", "radon-samples", "disk-samples"],
)
def test_unbounded_work_refused_under_memory_cap(tmp_path, argv):
    # 16,777,216 cells, Fraction("1e999999999"), a 3 * 2**30-cube grid and
    # 2e9 profile samples: unchecked, the first two ran for over a minute and
    # the others ran out of memory
    _capped_cli_exits_one(*argv, "-o", str(tmp_path / "out"))


@pytest.mark.parametrize("command", ["report", "monotonicity"])
def test_huge_window_exponent_exits_one(tmp_path, command):
    # the endpoint 2**(2**35) is a 4 GiB integer when shifted before it is sized
    T = tmp_path / "T.json"
    T.write_text('{"kind":"interval_set","intervals":[[0,0,8,0]],"window":[1,-34359738368,2,0]}')
    if command == "report":
        _capped_cli_exits_one("report", "--input", str(T))
    else:
        _capped_cli_exits_one("verify", "monotonicity", "--test", str(T),
                              "--shape", "[0,1]", "--grid", "0", "6", "1/16")


@pytest.fixture(scope="module")
def json_reports(tmp_path_factory):
    """A verification report, a monotonicity report and a counterexample."""
    d = tmp_path_factory.mktemp("reports")
    T, a, b = d / "T.json", d / "A.json", d / "B.json"
    assert run(["construct", "interval-union", "--lengths", "1",
                "--window", "0", "8", "--rho", "1/16", "-o", str(T)]) == 0
    write_json(a, interval_set_artifact(IntervalSet([(0, 1), (2, 5)])))
    write_json(b, interval_set_artifact(IntervalSet([(1, 3)])))
    reports = {kind: d / f"{kind}.json" for kind in
               ("verification_report", "monotonicity_report", "counterexample")}
    assert run(["verify", "injectivity", "--x", "0", "1", "1/4", "--length", "1", "1", "1",
                "--tests", str(T), "-o", str(reports["verification_report"])]) == 0
    assert run(["verify", "monotonicity", "--test", str(T), "--shape", "[0,1]",
                "--grid", "0", "6", "1/16", "-o", str(reports["monotonicity_report"])]) == 0
    assert run(["search", "two-set-counterexample", "--A", str(a), "--B", str(b),
                "-o", str(reports["counterexample"])]) == 0
    return reports


HEAVY = ["click", "numpy", "scipy"] + [f"reconset.{m}" for m in (
    "analysis", "construct", "gridsets", "intervals", "profiles", "quantize", "shapes",
    "targets", "verify")]


def test_random_draws_load_no_numpy_random():
    # slab directions and Monte Carlo trial seeds come from the grid sampler's
    # Philox kernel, so neither loads numpy.random
    code = (
        "import sys\n"
        "from reconset.construct import _direction_candidates\n"
        "from reconset.gridsets import validate_levels\n"
        "from reconset.verify import IntervalFamilyGrid, monte_carlo_reconstruction\n"
        "print(len(list(_direction_candidates(3, 64, 1))), 'numpy.random' in sys.modules)\n"
        "monte_carlo_reconstruction(IntervalFamilyGrid.of(0, 1, 1, 1, 1, 1),\n"
        "    validate_levels((16,), (4,), (0.5,), (0,), (3,)), copies=2, trials=2, seed=3)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    p = _python("-c", code)
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["67 False", "False"], p.stdout


def test_cli_import_graph(json_reports, tmp_path):
    # importing the CLI loads none of the computing modules, nor click; no
    # command of the benchmark (report, random sample, verify injectivity,
    # construct magnify) loads click either
    p = _python("-c", "import sys, reconset.cli; "
                f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"
    # nor does `report` of a JSON report load numpy
    for path in json_reports.values():
        p = _python("-c", "import sys; from reconset.cli import main; "
                    f"code = main(['report', '--input', {str(path)!r}]); "
                    "print(code, 'numpy' in sys.modules, 'click' in sys.modules)")
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines()[-1] == "0 False False", p.stdout
    # nor does `random sample` load the interval-set code, or numpy.random:
    # the sampler draws from its own Philox kernel
    argv = ["random", "sample", "--n", "16", "--g", "4", "--p", "0.5", "-o", str(tmp_path / "g.npz")]
    p = _python("-c", "import sys; from reconset.cli import main; "
                f"code = main({argv!r}); print(code, 'reconset.intervals' in sys.modules, "
                "'click' in sys.modules, 'numpy.random' in sys.modules)")
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines()[-1] == "0 False False False", p.stdout
    # `construct translate` quantizes a logistic, which needs no numpy.polynomial
    # (only the slow-decay target's antiderivative loads it); no command loads
    # numpy.ma, which np.unique's plain path imports
    argv = ["construct", "translate", "--profile", "tent", "--window", "-4", "4",
            "-o", str(tmp_path / "Tt.json")]
    p = _python("-c", "import sys; from reconset.cli import main; "
                f"code = main({argv!r}); print(code, 'numpy.polynomial' in sys.modules, "
                "'numpy.ma' in sys.modules)")
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines()[-1] == "0 False False", p.stdout
    ops = Path(__file__).parents[1] / "perfbench" / "ops.py"
    slab = ["slab-family", "--seed", "7", "--resolution", "64", "--grid", "5",
            "--family", str(tmp_path / "family.json"), "-o", str(tmp_path / "slab.json")]
    magnify = ["construct", "magnify", "--profile", "disk", "--window", "-2", "2",
               "-o", str(tmp_path / "Tm.json")]
    for call in (f"main({magnify!r})", f"runpy.run_path({str(ops)!r})['main']({slab!r})"):
        p = _python("-c", "import runpy, sys; from reconset.cli import main; "
                    f"code = {call}; print(code, sorted({{'click', 'numpy.ma'}} & set(sys.modules)))")
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines()[-1] == "0 []", (call, p.stdout)
    # each exact interval-set command loads only the modules it computes with,
    # and no numpy.ma; `verify monotonicity` parses its 1-D shape with
    # `shapes` and `profiles`
    T, a, b = (json_reports["verification_report"].parent / f for f in ("T.json", "A.json", "B.json"))
    computing = ("analysis", "gridsets", "profiles", "quantize", "shapes", "targets")
    exact = {
        ("construct", "interval-union", "--lengths", "1", "--window", "0", "8",
         "--rho", "1/16", "-o", str(tmp_path / "T.json")): (*computing, "verify"),
        ("search", "two-set-counterexample", "--A", str(a), "--B", str(b)): (*computing, "construct"),
        ("verify", "injectivity", "--x", "0", "1", "1/4", "--length", "1", "1", "1",
         "--tests", str(T)): (*computing, "construct"),
        ("verify", "monotonicity", "--test", str(T), "--shape", "[0,1]", "--grid", "0", "6", "1/16"):
            ("analysis", "construct", "gridsets", "quantize", "targets"),
    }
    for argv, unused in exact.items():
        unused = sorted(["click", "numpy.ma", *(f"reconset.{m}" for m in unused)])
        p = _python("-c", "import sys; from reconset.cli import main; "
                    f"code = main({list(argv)!r}); print(code, sorted(set({unused!r}) & set(sys.modules)))")
        assert p.returncode == 0, p.stderr
        assert p.stdout.splitlines()[-1] == "0 []", (argv, p.stdout)


@pytest.mark.parametrize("kind", ["verification_report", "monotonicity_report",
                                  "counterexample", "unknown"])
def test_report_csv_refused_without_table(tmp_path, capsys, json_reports, kind):
    path = json_reports.get(kind, tmp_path / "unknown.json")
    if kind == "unknown":
        path.write_text('{"meta": 1}')
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(["report", "--input", str(path), "--csv", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: a {kind} artifact has no tabular data\n")
    assert not out.exists()


def _runs_clean(capsys, argv, *written):
    capsys.readouterr()
    assert run(argv) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    for path in written:
        assert path.is_file(), path


def test_cli_branches_run(tmp_path, capsys):
    # each branch imports its modules when it runs, so each one is run once
    T, csv, Tm = tmp_path / "T.json", tmp_path / "T.csv", tmp_path / "Tm.json"
    _runs_clean(capsys, ["construct", "magnify", "--profile", "tent",
                         "--window", "-2", "2", "-o", str(Tm)], Tm)
    gs, summary = tmp_path / "g.npz", tmp_path / "g.json"
    _runs_clean(capsys, ["random", "sample", "--n", "1024", "--g", "32", "--p", "0.5",
                         "-o", str(gs), "--summary", str(summary)], gs, summary)
    assert run(["construct", "interval-union", "--lengths", "1",
                "--window", "0", "8", "--rho", "1/16", "-o", str(T)]) == 0
    plot = tmp_path / "mono.csv"
    _runs_clean(capsys, ["verify", "monotonicity", "--test", str(T), "--shape", "[0,1]",
                         "--grid", "0", "6", "1/16", "--emit-plot-data", str(plot)], plot)
    assert plot.read_text().startswith("x,measure\n")
    _runs_clean(capsys, ["report", "--input", str(T), "--csv", str(csv)], csv)
    assert csv.read_text().startswith("num_lo,exp_lo,num_hi,exp_hi\n")


def _command_paths(group, path=()):
    yield path
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _command_paths(cmd, (*path, name))
        else:
            yield (*path, name)


@pytest.mark.parametrize("path", list(_command_paths(cli)), ids=" ".join)
def test_help_of_every_command(capsys, path):
    assert run([*path, "--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("Usage: ") and out.err == ""


MALFORMED = {
    "interval-set-without-intervals": '{"kind":"interval_set"}',
    "list-of-ints": "[1,2,3]",
    "profile-without-data": '{"kind":"profile"}',
    "string": '"hello"',
    "float-entries": '{"kind":"interval_set","intervals":[[1.5,0,3,0]]}',
    "string-entries": '{"kind":"interval_set","intervals":[["1",0,"3",0]]}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--input", "interval-set-without-intervals"],
        ["report", "--input", "list-of-ints"],
        ["report", "--input", "profile-without-data"],
        ["report", "--input", "string"],
        ["report", "--input", "float-entries"],
        ["report", "--input", "string-entries"],
        ["construct", "translate", "--profile", "nosuch.json", "--window", "-4", "4",
         "-o", "out.json"],
        ["construct", "translate", "--profile", "string", "--window", "-4", "4",
         "-o", "out.json"],
        ["radon", "--shape", '{"variant":"ball"}', "--theta", "1,0", "-o", "out.json"],
        ["verify", "monotonicity", "--test", "list-of-ints", "--shape", "[0,1]",
         "--grid", "0", "6", "1/16"],
        ["search", "two-set-counterexample", "--A", "list-of-ints", "--B", "list-of-ints"],
    ],
    ids=["report-interval-set", "report-list", "report-profile", "report-string",
         "report-float-entries", "report-string-entries",
         "missing-profile-file", "profile-string", "shape-without-center",
         "monotonicity-list", "counterexample-list"],
)
def test_malformed_artifact_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
    assert run(argv) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("error: ")


_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.text(max_size=4),
)
_json = st.recursive(
    _leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)
_rows = st.lists(
    st.lists(st.integers(-64, 64) | st.integers(-(2**70), 2**70), min_size=4, max_size=4),
    max_size=4,
)
_floats = st.lists(st.floats(-4, 4, allow_nan=False), max_size=5)
_artifact = _json | _rows | st.fixed_dictionaries(
    {"kind": st.sampled_from(["interval_set", "profile", "verification_report", "other"])},
    optional={
        "intervals": _rows | _json,
        "window": _rows | _json,
        "xs": _floats | _json,
        "vl": _floats | _json,
        "vr": _floats | _json,
        "abs_error": _json,
    },
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obj=_artifact, command=st.sampled_from(["report", "monotonicity"]))
def test_arbitrary_artifact_keeps_exit_contract(tmp_path_factory, obj, command):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(obj))
    if command == "report":
        argv = ["report", "--input", str(path)]
    else:
        argv = ["verify", "monotonicity", "--test", str(path), "--shape", "[0,1]",
                "--grid", "0", "6", "1/16"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def _windowed_union(path, lengths, window):
    assert run(["construct", "interval-union", "--lengths", lengths,
                "--window", *window, "--rho", "1/2", "-o", str(path)]) == 0


def test_counterexample_searched_inside_windows(tmp_path):
    # outside its window [10, 18) a set reads as empty, where any two
    # intervals look alike
    a, b, ce = tmp_path / "A.json", tmp_path / "B.json", tmp_path / "ce.json"
    _windowed_union(a, "1", ("10", "18"))
    _windowed_union(b, "3/2", ("10", "18"))
    assert run(["search", "two-set-counterexample", "--A", str(a), "--B", str(b),
                "--min-length", "1", "-o", str(ce)]) == 0
    obj = read_json(ce)
    for key in ("first", "second"):
        x, y = (Dyadic(num, exp) for num, exp in obj[key])
        assert Dyadic(10) <= x and Dyadic(1) < y - x and y <= Dyadic(18)


def test_counterexample_disjoint_windows_exit_one(tmp_path, capsys):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    _windowed_union(a, "1", ("10", "18"))
    _windowed_union(b, "1", ("20", "28"))
    capsys.readouterr()
    assert run(["search", "two-set-counterexample", "--A", str(a), "--B", str(b)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: no interval longer than 1 fits in the intersection of the windows "
        "[10, 18), [20, 28)"
    )


def _windowed_pair(tmp_path, a_pairs, b_pairs, window):
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    write_json(a, interval_set_artifact(IntervalSet(a_pairs), Window.of(*window)))
    write_json(b, interval_set_artifact(IntervalSet(b_pairs), Window.of(*window)))
    return ["search", "two-set-counterexample", "--A", str(a), "--B", str(b)]


def test_counterexample_none_exits_two(tmp_path, capsys):
    # on [0, 5/4) every interval longer than 1 starts in A and ends in B, and
    # the measures (1/4 - x, y - 1) tell them apart
    argv = _windowed_pair(tmp_path, [(0, Dyadic(1, 2))], [(1, Dyadic(5, 2))], (0, Dyadic(5, 2)))
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "check failed: A and B tell apart every two intervals longer than 1 in "
        "[0, 5/2^2]: no pair of equal measures exists\n"
    )


def test_counterexample_fold_pair(tmp_path):
    # A and B share [0, 1/4); past 1 the set is A, then B: the pair folds there
    ce = tmp_path / "ce.json"
    argv = _windowed_pair(tmp_path, [(0, Dyadic(1, 2)), (1, Dyadic(9, 3))],
                          [(0, Dyadic(1, 2)), (Dyadic(9, 3), Dyadic(5, 2))], (0, Dyadic(5, 2)))
    assert run([*argv, "-o", str(ce)]) == 0
    assert read_json(ce) == {
        "kind": "counterexample", "rule": "y-fold",
        "first": [[0, 0], [17, 4]], "second": [[1, 4], [19, 4]],
        "a_discrepancy": 0.0, "b_discrepancy": 0.0,
    }


def test_counterexample_too_close_exits_three(tmp_path):
    # the widest pair in [0, 4) lies far less than 100 apart
    argv = _windowed_pair(tmp_path, [(0, 1)], [(2, 3)], (0, 4))
    assert run([*argv, "--tol", "1"]) == 3
    assert run(argv) == 0


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_counterexample_refuses_bad_tol(tmp_path, tol):
    # refused before the search, under a memory cap
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    write_json(a, interval_set_artifact(IntervalSet([(0, 1), (2, 5)])))
    write_json(b, interval_set_artifact(IntervalSet([(1, 3)])))
    _capped_cli_exits_one("search", "two-set-counterexample", "--A", str(a), "--B", str(b),
                          "--tol", tol)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "translate", "--profile", "tent", "--window", "-2", "2",
         "--rate", "nan", "-o", "out.json"],
        ["construct", "translate", "--profile", "tent", "--window", "-2", "2",
         "--rate", "inf", "-o", "out.json"],
        ["construct", "magnify", "--profile", "tent", "--window", "-2", "2",
         "--a-max", "nan", "-o", "out.json"],
        ["construct", "magnify", "--profile", "tent", "--window", "-2", "2",
         "--a-max", "inf", "-o", "out.json"],
        ["radon", "--shape", '{"variant":"ball","center":[0,0],"radius":1}',
         "--theta", "nan,0", "-o", "out.json"],
        ["radon", "--shape", '{"variant":"ball","center":[0,0],"radius":NaN}',
         "--theta", "1,0", "-o", "out.json"],
        ["radon", "--shape", "ball.json", "--theta", "1,0", "-o", "out.json"],
        ["verify", "injectivity", "--x", "1", "0", "1/16", "--length", "1", "2", "1/8",
         "--tests", "T.json", "-o", "out.json"],
        ["verify", "injectivity", "--x", "0", "0", "1", "--length", "1", "1", "1",
         "--tests", "T.json", "-o", "out.json"],
    ],
    ids=["translate-rate-nan", "translate-rate-inf", "magnify-a-max-nan",
         "magnify-a-max-inf", "radon-theta-nan", "radon-radius-nan",
         "radon-radius-infinity-file", "injectivity-no-instance",
         "injectivity-one-instance"],
)
def test_non_finite_numbers_and_small_families_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ball.json").write_text('{"variant":"ball","center":[0,0],"radius":Infinity}')
    write_json(tmp_path / "T.json", interval_set_artifact(IntervalSet([(0, 8)])))
    assert run(argv) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("error: ")
    assert not (tmp_path / "out.json").exists()


def test_write_json_refuses_non_finite(tmp_path):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"min_separation": value})
    # also beside the rows array of an interval-set artifact
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", interval_set_artifact(IntervalSet([(0, 8)]), meta={"tol": math.nan}))
    assert not (tmp_path / "x.json").exists()


def test_exact_monotonicity_verdict(tmp_path):
    # x -> λ([x, x+1) ∩ [0, 1)) = 1 + x rises 2^-60 a step, which floats
    # round away: every value reads 1.0
    T = tmp_path / "T.json"
    T.write_text('{"kind":"interval_set","intervals":[[0,0,1,0]]}')
    rep = tmp_path / "rep.json"
    assert run(["verify", "monotonicity", "--test", str(T), "--shape", "[0,1]",
                "--grid", "-16/2^60", "-1/2^60", "1/2^60", "-o", str(rep)]) == 0
    obj = read_json(rep)
    assert obj["passed"] is True and obj["violations"] == []
    assert obj["min_increment"] == 2.0**-60


def test_monotonicity_of_a_two_component_shape(tmp_path):
    # E = [0, 1/4) ∪ [1, 3/2): each grid row sums the measures of its two
    # components, checked against one exact measure_between per component
    S = IntervalSet([(0, 1), (Dyadic(3, 1), 4), (5, Dyadic(23, 2))])
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(S))
    rep = tmp_path / "rep.json"
    shape = '{"variant":"interval_union","intervals":[[0,0,1,2],[1,0,3,1]]}'
    assert run(["verify", "monotonicity", "--test", str(T), "--shape", shape,
                "--grid", "-2", "6", "1/8", "-o", str(rep)]) == 2
    E = [(Dyadic(0), Dyadic(1, 2)), (Dyadic(1), Dyadic(3, 1))]
    xs = [Dyadic(k - 16, 3) for k in range(65)]
    values = [sum((S.measure_between(x + a, x + b) for a, b in E), Dyadic(0)) for x in xs]
    diffs = [v - u for u, v in zip(values, values[1:])]
    obj = read_json(rep)
    assert obj["violations"] == [i + 1 for i, d in enumerate(diffs) if not Dyadic(0) < d]
    assert obj["min_increment"] == float(min(diffs))
    assert 0 < len(obj["violations"]) < len(diffs)


@pytest.mark.parametrize("least", ["-1", "0"])
def test_injectivity_refuses_non_positive_length(tmp_path, capsys, least):
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(IntervalSet([(0, 8)])))
    assert run(["verify", "injectivity", "--x", "0", "1", "1",
                "--length", least, "1", "1", "--tests", str(T)]) == 1
    assert capsys.readouterr().err == f"error: the least length must be positive, got {least}\n"


INT64_MAX = (1 << 63) - 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["monotonicity", "--grid", str(INT64_MAX - 2), str(INT64_MAX - 1), "1"], 2),
        (["monotonicity", "--grid", str(INT64_MAX - 1), str(INT64_MAX), "1"], 1),
        (["injectivity", "--x", str(1 << 62), str((1 << 62) + 1), "1",
          "--length", str((1 << 62) - 2), str((1 << 62) - 2), "1"], 2),
        (["injectivity", "--x", str(1 << 62), str((1 << 62) + 1), "1",
          "--length", str((1 << 62) - 1), str((1 << 62) - 1), "1"], 1),
    ],
    ids=["monotonicity-inside", "monotonicity-outside", "injectivity-inside",
         "injectivity-outside"],
)
def test_grid_points_at_the_int64_edge(tmp_path, capsys, argv, code):
    # x + 1 and x + L reach 2^63 - 1 inside, 2^63 outside; the set has no
    # window, so far out it reads as constant: a violation or a collision
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(IntervalSet([(0, 8)])))
    if argv[0] == "monotonicity":
        argv = [*argv, "--shape", "[0,1]", "--test", str(T)]
    else:
        argv = [*argv, "--tests", str(T)]
    assert run(["verify", *argv]) == code
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    if code == 1:
        assert out.err == "error: grid points need numerators beyond int64 at exponent 0\n"


def test_monotonicity_makes_no_dyadic_per_grid_point(tmp_path, monkeypatch):
    T = tmp_path / "T.json"
    write_json(T, interval_set_artifact(IntervalSet([(0, 100)])))
    calls = []
    init = Dyadic.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dyadic, "__init__", counting)
    # 65,537 points x, where λ([x, x+1) ∩ [0, 100)) = 1 + x
    assert run(["verify", "monotonicity", "--test", str(T), "--shape", "[0,1]",
                "--grid", "-1", "0", "1/65536"]) == 0
    assert len(calls) < 100


def test_injectivity_separates_measures_beyond_2_53(tmp_path):
    # the measures 1024 and 1024 + 2^-44 are the numerators 2^54 and 2^54 + 1
    # at exponent 44, one float apart from each other: floats read a collision
    T = tmp_path / "T.json"
    T.write_text('{"kind":"interval_set","intervals":'
                 '[[0,0,1024,0],[18014398509481985,44,18014398509481986,44]]}')
    rep = tmp_path / "rep.json"
    assert run(["verify", "injectivity", "--x", "0", "0", "1", "--length", "1024", "1025", "1",
                "--tests", str(T), "-o", str(rep)]) == 0
    obj = read_json(rep)
    assert obj["min_separation"] == 2.0**-44
    assert obj["collisions"] == [] and obj["collision_count"] == 0 and obj["passed"]


def test_collisions_counted_and_listed_under_memory_cap(tmp_path):
    # 22,455,296 colliding pairs: a list of them all does not fit under the cap
    T = tmp_path / "T.json"
    assert run(["construct", "interval-union", "--lengths", "1", "--window", "0", "8",
                "--rho", "1/16", "-o", str(T)]) == 0
    rep = tmp_path / "rep.json"
    p = _python("-m", "reconset.cli", "verify", "injectivity", "--x", "0", "1", "1/256",
                "--length", "1", "2", "1/256", "--tests", str(T), "-o", str(rep),
                preexec_fn=_limit_memory)
    assert p.returncode == 2
    assert "Traceback" not in p.stdout + p.stderr
    assert p.stdout == "instances 66049, min separation 0, collisions 22455296\n"
    obj = read_json(rep)
    assert obj["collision_count"] == 22455296 and not obj["passed"]
    assert len(obj["collisions"]) == MAX_LISTED_COLLISIONS


def test_injectivity_measures_each_test_before_the_next_loads(tmp_path, capsys):
    # loading and measuring alternate: a grid set is measured before the next
    # test loads, and of two bad tests the first in argument order decides
    good, bad, worse = (tmp_path / f"{name}.npz" for name in ("good", "bad", "worse"))
    assert run(["random", "sample", "--n", "4", "--g", "2", "--p", "0.5", "--seed", "1",
                "-o", str(good)]) == 0
    np.savez_compressed(bad, header=_GRID_HEADER, level_0=np.array([99]))
    np.savez_compressed(worse, level_0=np.array([0, 2]))  # no header
    inside, beyond = ("--x", "0", "1/2", "1/4"), ("--x", "0", "1", "1/4")
    cases = [
        (inside, (good, bad), f"error: {bad}: "),
        (inside, (good, worse, bad), f"error: {worse}: "),
        # the box [0, 1) of the good set holds no instance [1, 5/4)
        (beyond, (good, bad), "error: instances need [0, 5/2^2), outside the grid box [0, 1)\n"),
    ]
    for x, tests, message in cases:
        capsys.readouterr()
        argv = ["verify", "injectivity", *x, "--length", "1/4", "1/4", "1"]
        assert run([*argv, *(a for t in tests for a in ("--tests", str(t)))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err, err


_GRID_HEADER = json.dumps({"n": [4], "g": [2], "p": [0.5], "box_lo": [0], "box_hi": [1], "seed": 1})


@pytest.mark.parametrize(
    "arrays",
    [
        None,
        {"level_0": np.array([0, 2])},
        {"header": _GRID_HEADER},
        {"header": _GRID_HEADER, "level_0": np.array([99])},
        {"header": _GRID_HEADER, "level_0": np.array([-1])},
        {"header": _GRID_HEADER, "level_0": np.array([2.9])},
        {"header": _GRID_HEADER, "level_0": np.array([3, 1, 1])},
    ],
    ids=["truncated", "no-header", "no-level", "index-beyond-box", "negative-index",
         "float-index", "unsorted-repeated"],
)
def test_malformed_grid_set_exit_one(tmp_path, capsys, arrays):
    # the box [0, 1) holds 4 cubes at n = 4
    g = tmp_path / "g.npz"
    if arrays is None:
        np.savez_compressed(g, header=_GRID_HEADER, level_0=np.array([0, 2]))
        g.write_bytes(g.read_bytes()[:-30])
    else:
        np.savez_compressed(g, **arrays)
    assert run(["verify", "injectivity", "--x", "0", "1/2", "1/4",
                "--length", "1/4", "1/4", "1", "--tests", str(g)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {g}: ") and "Traceback" not in err
