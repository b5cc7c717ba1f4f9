"""Command-line front end.

Subcommands: construct (interval-union | translate | magnify), radon,
random sample, verify (monotonicity | injectivity), search
two-set-counterexample, and report.  All randomness flows from --seed; for
fixed arguments the emitted artifacts are byte-identical.

The command table is built here on the standard library alone: a Group maps
names to subgroups and Commands, and each Command declares its Options.  An
option consumes the next nargs words as they are, so `--grid 0 6 -1/16`
hands -1/16 to the command.  `--opt=value`, `-oFILE` and repeated options
parse; `--help` prints the usage of any group or command.

Exit codes: 0 success, 1 usage error or invalid input, 2 a verification check failed,
3 a check was indeterminate at the available accuracy.
"""

from __future__ import annotations

import json
import os
import sys

from . import io as rio
from .dyadic import Dyadic, check_decimal_exponent, parse_or_snap
from .errors import IndeterminateError, CheckFailedError, ReconsetError


class UsageError(Exception):
    """A command line the table does not accept (exit 1)."""


class HelpRequested(Exception):
    """--help: the usage text to print (exit 0)."""


def existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise ValueError(f"path {text!r} does not exist")
    return text


METAVARS = {int: "INTEGER", float: "FLOAT", existing_path: "PATH"}


class Option:
    """One option of a command: the words it takes and the keyword it fills."""

    def __init__(self, *flags, dest=None, nargs=1, type=str, multiple=False, required=False,
                 default=None, help=""):
        self.flags = flags
        self.dest = dest or flags[-1].lstrip("-").replace("-", "_")
        self.nargs = nargs
        self.type = type
        self.multiple = multiple
        self.required = required
        self.default = default
        self.help = help

    def convert(self, flag, words):
        try:
            values = tuple(self.type(w) for w in words)
        except ValueError as e:
            raise UsageError(f"invalid value for {flag}: {e}") from None
        return values if self.nargs > 1 else values[0]

    def usage(self):
        metavar = " ".join([METAVARS.get(self.type, "TEXT")] * self.nargs)
        notes = [note for note, shown in (
            ("required", self.required), (f"default: {self.default}", self.default is not None),
            ("repeatable", self.multiple)) if shown]
        text = " ".join([self.help, f"[{', '.join(notes)}]"] if notes else [self.help])
        return f"{', '.join(self.flags)} {metavar}", text.strip()


def _usage(path, summary, doc, options, commands=()) -> str:
    import inspect  # only --help reads a docstring

    options = [*options, ("--help", "Show this message and exit.")]
    width = 2 + max(len(name) for name, _ in [*options, *commands])
    lines = [f"Usage: reconset {' '.join([*path, summary])}", ""]
    lines += [f"  {line}".rstrip() for line in inspect.cleandoc(doc).splitlines()]
    for heading, rows in (("Options", options), ("Commands", commands)):
        if rows:
            lines += ["", f"{heading}:", *(f"  {name:<{width}}{text}".rstrip() for name, text in rows)]
    return "\n".join(lines)


class Command:
    """A command body and the options that fill its keyword arguments."""

    def __init__(self, path, callback, options):
        self.path = path
        self.callback = callback
        self.doc = callback.__doc__
        self.options = options
        self.by_flag = {flag: opt for opt in options for flag in opt.flags}

    def make_context(self, args) -> dict:
        """The keyword arguments that args give the body."""
        found = {}
        i = 0
        while i < len(args):
            word = args[i]
            i += 1
            if word == "--help":
                raise HelpRequested(self.help())
            if word.startswith("--"):
                flag, attached, value = word.partition("=")
            else:  # -o FILE or -oFILE
                flag, value = word[:2], word[2:]
                attached = bool(value)
            opt = self.by_flag.get(flag)
            if opt is None:
                what = "no such option" if word.startswith("-") else "unexpected argument"
                raise UsageError(f"{what}: {word}")
            words = [value] if attached else []
            need = opt.nargs - len(words)
            words += args[i:i + need]
            i += need
            if len(words) < opt.nargs:
                raise UsageError(f"option {flag} requires {opt.nargs} argument(s)")
            value = opt.convert(flag, words)
            if opt.multiple:
                found.setdefault(opt.dest, []).append(value)
            else:
                found[opt.dest] = value
        kwargs = {}
        for opt in self.options:
            if opt.dest in found:
                kwargs[opt.dest] = tuple(found[opt.dest]) if opt.multiple else found[opt.dest]
            elif opt.required:
                raise UsageError(f"missing option {opt.flags[-1]}")
            else:
                kwargs[opt.dest] = () if opt.multiple else opt.default
        return kwargs

    def help(self) -> str:
        return _usage(self.path, "[OPTIONS]", self.doc, [opt.usage() for opt in self.options])


class Group:
    """Named subgroups and commands."""

    def __init__(self, path, doc):
        self.path = path
        self.doc = doc
        self.commands = {}

    def group(self, name, doc) -> Group:
        self.commands[name] = Group((*self.path, name), doc)
        return self.commands[name]

    def command(self, name, *options):
        def register(callback):
            self.commands[name] = Command((*self.path, name), callback, options)
            return callback

        return register

    def make_context(self, args):
        """The subgroup or command that args name, and the words left for it."""
        if not args:
            raise UsageError(f"missing command; one of: {', '.join(sorted(self.commands))}")
        word, *rest = args
        if word == "--help":
            raise HelpRequested(self.help())
        if word not in self.commands:
            raise UsageError(f"no such {'option' if word.startswith('-') else 'command'}: {word}")
        return self.commands[word], rest

    def help(self) -> str:
        return _usage(self.path, "[OPTIONS] COMMAND [ARGS]...", self.doc, [], [
            (name, cmd.doc.split("\n")[0]) for name, cmd in sorted(self.commands.items())])


# every command imports the modules it runs in its own body: `report` of a
# JSON report loads no numpy, and `random sample` no construction code


def _dyadic_arg(text: str, what: str = "value") -> Dyadic:
    # a value out of range, not an unparseable one: exit 1 with error:
    check_decimal_exponent(text)
    try:
        value, err = parse_or_snap(text)
    except Exception as e:
        raise UsageError(f"cannot parse {what} {text!r}: {e}")
    if err != 0:
        print(f"note: {what} {text} snapped to {value} (error {float(err):.3g})", file=sys.stderr)
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


cli = Group((), "Construct and verify measure test sets at desk scale.")
construct = cli.group("construct", "Build test sets.")
OUTPUT = Option("-o", "--output", required=True)


@construct.command(
    "interval-union",
    Option("--lengths", multiple=True, required=True, help="component lengths (dyadic)"),
    Option("--window", nargs=2, required=True),
    Option("--rho", required=True, help="positive-measure scale"),
    OUTPUT,
)
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
    print(f"wrote {output}: {len(T)} intervals, measure {T.measure()}")


@construct.command(
    "translate",
    Option("--profile", required=True, help="tent | disk | profile file"),
    Option("--window", nargs=2, required=True),
    Option("--resolution", type=int, default=64),
    Option("--rate", type=float, default=0.5),
    OUTPUT,
)
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
    print(f"wrote {output}: {len(T)} intervals")


@construct.command(
    "magnify",
    Option("--profile", required=True),
    Option("--window", nargs=2, required=True),
    Option("--a-max", type=float, default=8.0),
    Option("--resolution", type=int, default=8),
    OUTPUT,
)
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
    print(f"wrote {output}: {len(T)} intervals, growth slope {cert.growth.slope:.3g}")


@cli.command(
    "radon",
    Option("--shape", required=True, help="shape JSON (inline or file)"),
    Option("--theta", required=True, help="direction components, comma separated"),
    Option("--resolution", type=int, default=256),
    OUTPUT,
    Option("--emit-plot-data"),
)
def radon_cmd(shape, theta, resolution, output, emit_plot_data):
    """Section-measure profile of a shape in a direction."""
    from .shapes import Direction, radon_profile

    E = _load_shape(shape)
    th = Direction.of([float(x) for x in theta.split(",")])
    p = radon_profile(E, th, resolution)
    rio.write_json(output, rio.profile_artifact(p, {"theta": list(th.theta)}))
    if emit_plot_data:
        rio.write_csv(emit_plot_data, ["breakpoint", "value"], p.to_csv_rows())
    print(f"wrote {output}: {p.piece_count} pieces, mass {p.integral():.6g}")


random = cli.group("random", "Randomized grid constructions.")


@random.command(
    "sample",
    Option("--n", dest="n_", multiple=True, required=True, type=int),
    Option("--g", dest="g_", multiple=True, required=True, type=int),
    Option("--p", dest="p_", multiple=True, required=True, type=float),
    Option("--box", nargs=2, type=int, default=(0, 1)),
    Option("--seed", type=int, default=0),
    OUTPUT,
    Option("--summary"),
)
def random_sample(n_, g_, p_, box, seed, output, summary):
    """Sample a multi-level random cube set (binary npz + JSON summary)."""
    from .gridsets import grid_summary, sample_grid_set, save_grid_set, validate_levels

    levels = validate_levels(n_, g_, p_, (box[0],), (box[1],))
    gs = sample_grid_set(levels, seed)
    save_grid_set(gs, output)
    if summary:
        rio.write_json(summary, grid_summary(gs))
    print(f"wrote {output}: measure {gs.measure()}")


verify = cli.group("verify", "Verify constructions against their guarantees.")


@verify.command(
    "monotonicity",
    Option("--test", dest="test_path", required=True, type=existing_path),
    Option("--shape", required=True, help="1-D shape: '[a,b]' or interval-union file"),
    Option("--grid", nargs=3, required=True, help="lo hi step (dyadic)"),
    Option("-o", "--output"),
    Option("--emit-plot-data"),
)
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
        raise UsageError("monotonicity verification needs a 1-D shape")
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
    print(
        f"min increment {rep.min_increment:.6g}; violations: {len(rep.violations)}"
    )
    if not rep.passed:
        raise CheckFailedError("monotonicity violated")


@verify.command(
    "injectivity",
    Option("--x", dest="x_", nargs=3, required=True, help="x lo hi step"),
    Option("--length", dest="l_", nargs=3, required=True, help="L lo hi step"),
    Option("--tests", multiple=True, required=True, type=existing_path),
    Option("-o", "--output"),
)
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
    print(
        f"instances {rep.instance_count}, min separation {rep.min_separation:.6g}, "
        f"collisions {rep.collision_count}"
    )
    if rep.collision_count:
        raise CheckFailedError("collision found")
    if rep.indeterminate:
        raise IndeterminateError("separation within quadrature error")


search = cli.group("search", "Counterexample searches.")


@search.command(
    "two-set-counterexample",
    Option("--A", dest="a_path", required=True, type=existing_path),
    Option("--B", dest="b_path", required=True, type=existing_path),
    Option("--min-length", default="1"),
    Option("--tol", type=float, default=1e-9,
           help="the pair must lie at least max(100 tol, 2^-20) apart"),
    Option("-o", "--output"),
)
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
    print(
        f"[{x1}, {y1}] vs [{x2}, {y2}] ({pair.rule}): discrepancies "
        f"{float(pair.a_discrepancy):.3g}, {float(pair.b_discrepancy):.3g}"
    )


@cli.command(
    "report",
    Option("--input", dest="input_path", required=True, type=existing_path),
    Option("--csv", dest="csv_path"),
)
def report_cmd(input_path, csv_path):
    """Summarize an artifact; optionally re-emit tabular data as CSV."""
    obj = rio.read_json(input_path)
    # a bare list is an interval set, as the interval-set loader reads it
    kind = obj.get("kind", "unknown") if isinstance(obj, dict) else "interval_set"
    if csv_path and kind not in ("interval_set", "profile"):
        raise ValueError(f"{input_path}: a {kind} artifact has no tabular data")
    print(f"kind: {kind}")
    if kind == "interval_set":
        T, _ = rio.decode_interval_set(obj, input_path)
        print(f"intervals: {len(T)}; measure: {T.measure()}")
        if csv_path:
            rio.write_interval_csv(csv_path, T)
    elif kind == "profile":
        p = rio.decode_profile(obj, input_path)
        print(f"pieces: {p.piece_count}; mass: {p.integral():.6g}")
        if csv_path:
            rio.write_csv(csv_path, ["breakpoint", "value"], p.to_csv_rows())
    elif kind in ("verification_report", "monotonicity_report", "counterexample"):
        for key, val in sorted(obj.items()):
            if key != "kind":
                print(f"{key}: {val}")
    else:
        print(json.dumps(obj, sort_keys=True)[:2000])


def main(argv=None):
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = cli
        while isinstance(cmd, Group):
            cmd, args = cmd.make_context(args)
        kwargs = cmd.make_context(args)
        cmd.callback(**kwargs)
        return 0
    except HelpRequested as e:
        print(e)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except CheckFailedError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2
    except IndeterminateError as e:
        print(f"indeterminate: {e}", file=sys.stderr)
        return 3
    except (ReconsetError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
