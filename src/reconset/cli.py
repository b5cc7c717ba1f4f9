"""Command-line front end.

Subcommands: construct (interval-union | translate | magnify), radon,
random sample, verify (monotonicity | injectivity), search
two-set-counterexample, and report.  All randomness flows from --seed; for
fixed arguments the emitted artifacts are byte-identical.

Exit codes: 0 success, 1 usage error or invalid input, 2 a verification check failed,
3 a check was indeterminate at the available accuracy.
"""

from __future__ import annotations

import json
import sys

import click

from . import io as rio
from .dyadic import Dyadic, check_decimal_exponent, parse_or_snap
from .errors import IndeterminateError, CheckFailedError, ReconsetError

# every command imports the modules it runs in its own body: `report` of a
# JSON report loads no numpy, and `random sample` no construction code


def _dyadic_arg(text: str, what: str = "value") -> Dyadic:
    # a value out of range, not an unparseable one: exit 1 with error:
    check_decimal_exponent(text)
    try:
        value, err = parse_or_snap(text)
    except Exception as e:
        raise click.UsageError(f"cannot parse {what} {text!r}: {e}")
    if err != 0:
        click.echo(
            f"note: {what} {text} snapped to {value} (error {float(err):.3g})",
            err=True,
        )
    if value.exp > 64:
        raise ValueError(f"{what} {text} is finer than 2^-64, which no int64 kernel resolves")
    return value


def _parse_lengths(values) -> list:
    out = []
    for v in values:
        for part in str(v).split(","):
            if part.strip():
                out.append(_dyadic_arg(part, "length"))
    return out


def _named_profile(spec: str, resolution: int):
    from .profiles import Profile

    if spec == "tent":
        return Profile.tent()
    if spec == "disk":
        from .shapes import Ball, Direction, radon_profile

        return radon_profile(Ball((0.0, 0.0), 1.0), Direction((1.0, 0.0)), resolution)
    return rio.load_profile(spec)


def _load_shape(spec: str):
    from .shapes import shape_from_json

    try:
        obj = rio.parse_json(spec)
    except json.JSONDecodeError:
        obj = rio.read_json(spec)
    return shape_from_json(obj)


@click.group()
def cli():
    """Construct and verify measure test sets at desk scale."""


@cli.group()
def construct():
    """Build test sets."""


@construct.command("interval-union")
@click.option("--lengths", multiple=True, required=True, help="component lengths (dyadic)")
@click.option("--window", nargs=2, required=True, type=str)
@click.option("--rho", required=True, type=str, help="positive-measure scale")
@click.option("-o", "--output", required=True, type=click.Path())
def construct_interval_union(lengths, window, rho, output):
    """Semigroup test set T = A ∪ (A+G) for translates of interval unions."""
    from .construct import union_test_set
    from .intervals import Window

    win = Window(_dyadic_arg(window[0], "window lo"), _dyadic_arg(window[1], "window hi"))
    rho_d = _dyadic_arg(rho, "rho")
    T = union_test_set(_parse_lengths(lengths), win, rho_d)
    rio.write_json(
        output,
        rio.interval_set_artifact(
            T, win, {"construction": "interval-union", "rho": str(rho_d)}
        ),
    )
    click.echo(f"wrote {output}: {len(T)} intervals, measure {T.measure()}")


@construct.command("translate")
@click.option("--profile", required=True, help="tent | disk | profile file")
@click.option("--window", nargs=2, required=True, type=str)
@click.option("--resolution", default=64, show_default=True)
@click.option("--rate", default=0.5, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
def construct_translate(profile, window, resolution, rate, output):
    """Test set making the sliding integral of a profile strictly increasing."""
    from .construct import translate_test_set
    from .intervals import Window

    p = _named_profile(profile, resolution)
    win = Window(_dyadic_arg(window[0]), _dyadic_arg(window[1]))
    T, cert = translate_test_set(p, win, rate=rate)
    art = rio.interval_set_artifact(T, cert.effective_window)
    art["certificate"] = cert.to_json()
    rio.write_json(output, art)
    click.echo(f"wrote {output}: {len(T)} intervals")


@construct.command("magnify")
@click.option("--profile", required=True)
@click.option("--window", nargs=2, required=True, type=str)
@click.option("--a-max", default=8.0, show_default=True)
@click.option("--resolution", default=8, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
def construct_magnify(profile, window, a_max, resolution, output):
    """Test set monotone under every magnification a in [1, a_max]."""
    from .construct import magnify_test_set
    from .intervals import Window

    p = _named_profile(profile, resolution)
    win = Window(_dyadic_arg(window[0]), _dyadic_arg(window[1]))
    T, cert = magnify_test_set(p, win, a_max)
    art = rio.interval_set_artifact(T, cert.effective_window)
    art["certificate"] = cert.to_json()
    rio.write_json(output, art)
    click.echo(f"wrote {output}: {len(T)} intervals, growth slope {cert.growth.slope:.3g}")


@cli.command("radon")
@click.option("--shape", required=True, help="shape JSON (inline or file)")
@click.option("--theta", required=True, help="direction components, comma separated")
@click.option("--resolution", default=256, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--emit-plot-data", type=click.Path(), default=None)
def radon_cmd(shape, theta, resolution, output, emit_plot_data):
    """Section-measure profile of a shape in a direction."""
    from .shapes import Direction, radon_profile

    E = _load_shape(shape)
    th = Direction.of([float(x) for x in theta.split(",")])
    p = radon_profile(E, th, resolution)
    rio.write_json(output, rio.profile_artifact(p, {"theta": list(th.theta)}))
    if emit_plot_data:
        rio.write_csv(emit_plot_data, ["breakpoint", "value"], p.to_csv_rows())
    click.echo(f"wrote {output}: {p.piece_count} pieces, mass {p.integral():.6g}")


@cli.group()
def random():
    """Randomized grid constructions."""


@random.command("sample")
@click.option("--n", "n_", multiple=True, required=True, type=int)
@click.option("--g", "g_", multiple=True, required=True, type=int)
@click.option("--p", "p_", multiple=True, required=True, type=float)
@click.option("--box", nargs=2, type=int, default=(0, 1), show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
@click.option("--summary", type=click.Path(), default=None)
def random_sample(n_, g_, p_, box, seed, output, summary):
    """Sample a multi-level random cube set (binary npz + JSON summary)."""
    from .gridsets import grid_summary, sample_grid_set, save_grid_set, validate_levels

    levels = validate_levels(n_, g_, p_, (box[0],), (box[1],))
    gs = sample_grid_set(levels, seed)
    save_grid_set(gs, output)
    if summary:
        rio.write_json(summary, grid_summary(gs))
    click.echo(f"wrote {output}: measure {gs.measure()}")


@cli.group()
def verify():
    """Verify constructions against their guarantees."""


@verify.command("monotonicity")
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--shape", required=True, help="1-D shape: '[a,b]' or interval-union file")
@click.option("--grid", nargs=3, required=True, type=str, help="lo hi step (dyadic)")
@click.option("-o", "--output", type=click.Path(), default=None)
@click.option("--emit-plot-data", type=click.Path(), default=None)
def verify_monotonicity(test_path, shape, grid, output, emit_plot_data):
    """Exact strict-increase check of x -> lambda((E+x) ∩ T).

    An interval-union test set built at --rho promises strict increase over
    every translation step of at least rho, at any offset; a finer grid can
    meet flats (the README set reports 192 zero increments at step 1/64).
    """
    from .shapes import IntervalUnion
    from .verify import check_span, grid_points, measure_vector, monotonicity_report

    T, window = rio.load_interval_set(test_path)
    E = _load_shape(shape)
    if not isinstance(E, IntervalUnion):
        raise click.UsageError("monotonicity verification needs a 1-D shape")
    lo, hi, step = (_dyadic_arg(g) for g in grid)
    # a row of points is x + a_k, x + b_k over E's components [a_k, b_k), and
    # lambda((E+x) ∩ T) sums the row's measures of T ∩ [x + a_k, x + b_k)
    points, e = grid_points(lo, hi, step, [end for pair in E.S for end in pair])
    if window is not None and points.size:
        need = (Dyadic(int(points.min()), e), Dyadic(int(points.max()), e))
        check_span(need, window, f"the window of {test_path}")
    measures, e = measure_vector((points.reshape(-1, 2), e), [T])
    nums = measures.reshape(len(points), len(E.S)).sum(axis=1)
    rep = monotonicity_report(nums.tolist(), e)
    out = {"kind": "monotonicity_report"}
    out.update(rep.to_json())
    out["grid"] = [str(lo), str(hi), str(step)]
    if output:
        rio.write_json(output, out)
    if emit_plot_data:
        xs, ex = grid_points(lo, hi, step)
        rows = zip((xs[:, 0] * 2.0**-ex).tolist(), (nums * 2.0**-e).tolist())
        rio.write_csv(emit_plot_data, ["x", "measure"], list(rows))
    click.echo(
        f"min increment {rep.min_increment:.6g}; violations: {len(rep.violations)}"
    )
    if not rep.passed:
        raise CheckFailedError("monotonicity violated")


@verify.command("injectivity")
@click.option("--x", "x_", nargs=3, required=True, type=str, help="x lo hi step")
@click.option("--length", "l_", nargs=3, required=True, type=str, help="L lo hi step")
@click.option("--tests", multiple=True, required=True, type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
def verify_injectivity(x_, l_, tests, output):
    """Pairwise separation of interval-family measure vectors (exact)."""
    from .verify import IntervalFamilyGrid, check_span, injectivity_report

    grid = IntervalFamilyGrid.of(
        _dyadic_arg(x_[0]), _dyadic_arg(x_[1]), _dyadic_arg(x_[2]),
        _dyadic_arg(l_[0]), _dyadic_arg(l_[1]), _dyadic_arg(l_[2]),
    )
    need = grid.span()

    def load(path):
        if str(path).endswith(".npz"):
            from .gridsets import load_grid_set

            return load_grid_set(path)
        T, window = rio.load_interval_set(path)
        if window is not None and need is not None:
            check_span(need, window, f"the window of {path}")
        return T

    # one test set resident at a time: each loads when its column is measured
    rep = injectivity_report(grid, (load(t) for t in tests))
    out = {"kind": "verification_report"}
    out.update(rep.to_json())
    if output:
        rio.write_json(output, out)
    click.echo(
        f"instances {rep.instance_count}, min separation {rep.min_separation:.6g}, "
        f"collisions {rep.collision_count}"
    )
    if rep.collision_count:
        raise CheckFailedError("collision found")
    if rep.indeterminate:
        raise IndeterminateError("separation within quadrature error")


@cli.group()
def search():
    """Counterexample searches."""


@search.command("two-set-counterexample")
@click.option("--A", "a_path", required=True, type=click.Path(exists=True))
@click.option("--B", "b_path", required=True, type=click.Path(exists=True))
@click.option("--min-length", default="1", type=str)
@click.option("--tol", default=1e-9, show_default=True,
              help="the pair must lie at least max(100 tol, 2^-20) apart")
@click.option("-o", "--output", type=click.Path(), default=None)
def search_counterexample(a_path, b_path, min_length, tol, output):
    """Two long intervals that two given test sets cannot distinguish.

    Decided exactly on the pieces of A ∪ B inside the intersection of the
    windows the two sets record: exit 0 with two intervals longer than
    --min-length that A and B measure equally, 2 when no two exist (A and B
    tell apart every such interval there), 3 when the widest pair lies less
    than max(100 tol, 2^-20) apart.
    """
    from .verify import interval_counterexample

    A, a_window = rio.load_interval_set(a_path)
    B, b_window = rio.load_interval_set(b_path)
    windows = [w for w in (a_window, b_window) if w is not None]
    pair = interval_counterexample(A, B, _dyadic_arg(min_length), tol, windows)
    out = {"kind": "counterexample"}
    out.update(pair.to_json())
    if output:
        rio.write_json(output, out)
    (x1, y1), (x2, y2) = pair.first, pair.second
    click.echo(
        f"[{x1}, {y1}] vs [{x2}, {y2}] ({pair.rule}): discrepancies "
        f"{float(pair.a_discrepancy):.3g}, {float(pair.b_discrepancy):.3g}"
    )


@cli.command("report")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def report_cmd(input_path, csv_path):
    """Summarize an artifact; optionally re-emit tabular data as CSV."""
    obj = rio.read_json(input_path)
    # a bare list is an interval set, as the interval-set loader reads it
    kind = obj.get("kind", "unknown") if isinstance(obj, dict) else "interval_set"
    if csv_path and kind not in ("interval_set", "profile"):
        raise ValueError(f"{input_path}: a {kind} artifact has no tabular data")
    click.echo(f"kind: {kind}")
    if kind == "interval_set":
        T, _ = rio.decode_interval_set(obj, input_path)
        click.echo(f"intervals: {len(T)}; measure: {T.measure()}")
        if csv_path:
            rio.write_interval_csv(csv_path, T)
    elif kind == "profile":
        p = rio.decode_profile(obj, input_path)
        click.echo(f"pieces: {p.piece_count}; mass: {p.integral():.6g}")
        if csv_path:
            rio.write_csv(csv_path, ["breakpoint", "value"], p.to_csv_rows())
    elif kind in ("verification_report", "monotonicity_report", "counterexample"):
        for key, val in sorted(obj.items()):
            if key != "kind":
                click.echo(f"{key}: {val}")
    else:
        click.echo(json.dumps(obj, sort_keys=True)[:2000])


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except CheckFailedError as e:
        click.echo(f"check failed: {e}", err=True)
        return 2
    except IndeterminateError as e:
        click.echo(f"indeterminate: {e}", err=True)
        return 3
    except (ReconsetError, ValueError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
