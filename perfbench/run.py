"""Run one workload of the reconset benchmark and print its metrics.

    python3 perfbench/run.py --workload small-queries --seed 1 --seconds 55 --trace 0

Run from a source checkout (``src/reconset`` next to ``perfbench``); nothing
needs installing.  The run repeats the workload's chain of operations, each
operation a fresh process started one at a time, until ``--seconds`` are
used (at least MIN_CHAINS chains), and checks every output.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: stage times
summed from each operation's median wall time over the chains, and
``setup_s``, the median time a fresh interpreter takes to import
``reconset.cli``.  ``--trace 1`` alternates untraced chains with chains whose
operations run in-process under ``tracing.py`` and prints the per-layer
metrics, median over the traced chains.  Every operation is single-threaded
(see BLAS_THREAD_VARS).  Per-chain figures are printed too.  The last line
of standard output is the JSON result; failed checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CHAINS = 2  # rounds per run, whatever --seconds says
SETUP_PROBES = 1  # setup_s samples per chain
START_LIMIT_S = 140.0  # no chain starts later than this into a run
KILL_AT_S = 170.0  # an operation still running this far into a run is killed
STAGES = ("construct", "verify", "report")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Proc:
    rc: int
    start: float  # time.monotonic(), comparable with the child's own clock
    end: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts operations one at a time and keeps the failure count."""

    def __init__(self, started: float):
        self.started = started
        # one thread per operation: numpy's BLAS would otherwise start a
        # thread per core, and the operations would contend with the host's
        # other load for both cores of a small machine.  A fixed hash seed
        # gives every process the same dict and set layouts.
        self.env = dict(
            os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
            **{v: "1" for v in BLAS_THREAD_VARS},
        )
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd, cwd: Path, log: Path) -> Proc:
        with open(log.with_suffix(".stdout"), "w+b") as out, open(log.with_suffix(".stderr"), "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [str(c) for c in cmd], cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(max(1.0, KILL_AT_S - (start - self.started)), proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # give the largest of every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(
                proc.returncode, start, end, usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
                out.read().decode(errors="replace"), err.read().decode(errors="replace"),
            )

    def setup_probe(self, cwd: Path) -> float:
        p = self.spawn([sys.executable, "-c", "import reconset.cli"], cwd, cwd / "setup")
        if p.rc != 0:
            raise RuntimeError(f"cannot import reconset.cli:\n{p.stderr}")
        return p.end - p.start

    def chain(self, ops, d: Path, traced: bool) -> list[Proc]:
        """One chain: each operation's process."""
        d.mkdir()
        procs = []
        for i, op in enumerate(ops):
            if traced:
                cmd = [sys.executable, HERE / "tracing.py", f"op{i}.spans.json", op.kind, *op.args]
            elif op.kind == "cli":
                cmd = [sys.executable, "-m", "reconset.cli", *op.args]
            else:
                cmd = [sys.executable, HERE / "ops.py", *op.args]
            procs.append(self.spawn(cmd, d, d / f"op{i}"))
        return procs

    def judge(self, ops, procs, d: Path, ref: Path | None):
        """Count each process, and count it failed if it exited wrongly,
        printed a traceback, or its outputs fail the checks (first chain) or
        differ from the first chain's (later chains)."""
        for i, (op, p) in enumerate(zip(ops, procs)):
            problems = []
            if p.rc != 0:
                problems.append(f"exit code {p.rc}")
            if "Traceback" in p.stderr:
                problems.append("traceback on stderr")
            problems += [f"{f}: not written" for f in op.outputs if not (d / f).is_file()]
            if not problems and ref is None and op.check is not None:
                try:
                    problems += op.check(p.stdout, d)
                except Exception as e:  # a malformed output is a failed check
                    problems.append(f"check raised {e!r}")
            elif not problems and ref is not None:
                problems += [
                    f"{f}: differs from the first chain" for f in op.outputs
                    if not (ref / f).is_file() or not _same_output(d / f, ref / f)
                ]
                if _stable_lines(p.stdout) != _stable_lines((ref / f"op{i}.stdout").read_text()):
                    problems.append("stdout differs from the first chain")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {d.name} op{i} {' '.join(op.args[:2])}: {'; '.join(problems)}", file=sys.stderr)
                if p.stderr:
                    print(p.stderr[-2000:], file=sys.stderr)


def _stable_lines(text: str) -> list[str]:
    """Output lines that must repeat exactly: not the wall-clock `runtime`
    of a verification report, not a stage timestamp."""
    return [l for l in text.splitlines() if not l.startswith(("runtime:", "stage "))]


def _same_output(a: Path, b: Path) -> bool:
    """Byte-identical, or for a verification report equal but for `runtime`."""
    if a.read_bytes() == b.read_bytes():
        return True
    if a.suffix != ".json":
        return False
    x, y = json.loads(a.read_text()), json.loads(b.read_text())
    for obj in (x, y):
        if isinstance(obj, dict) and obj.get("kind") == "verification_report":
            obj.pop("runtime", None)
    return x == y


def _stage_mark(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("stage construct "):
            return float(line.split()[2])
    raise ValueError("no 'stage construct' line in the output")


def chain_metrics(ops, procs, d: Path) -> dict:
    """Wall time of each piece of one chain, keyed `<stage>:<operation>` (an
    operation that marks where construction ends gives two pieces), its
    largest peak RSS and the bytes it wrote."""
    out = {}
    for i, (op, p) in enumerate(zip(ops, procs)):
        if op.split:
            mid = _stage_mark(p.stdout) if p.rc == 0 else p.start
            out[f"construct:{i}"] = mid - p.start
            out[f"{op.stage}:{i}"] = p.end - mid
        else:
            out[f"{op.stage}:{i}"] = p.end - p.start
    written = sum((d / f).stat().st_size for op in ops for f in op.outputs if (d / f).is_file())
    out["peak_rss_mb"] = max(p.maxrss_mb for p in procs)
    out["artifact_mb"] = written / 1e6
    return out


def _median(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(chains: list[dict]) -> dict:
    """Each piece's median wall time over the chains, summed per stage and
    over the whole chain; peak RSS and bytes written, median over the chains."""
    mid = _median(chains)
    out = {f"{s}_s": sum(v for k, v in mid.items() if k.startswith(f"{s}:")) for s in STAGES}
    out["total_s"] = sum(out[f"{s}_s"] for s in STAGES)
    out["peak_rss_mb"] = mid["peak_rss_mb"]
    out["artifact_mb"] = mid["artifact_mb"]
    return out


def _summary(name: str, values: list) -> str:
    return (
        f"  {name:34s} median {statistics.median(values):<12.6g} "
        f"min {min(values):<12.6g} max {max(values):<12.6g} n={len(values)}"
    )


def main(argv=None) -> int:
    if not (SRC / "reconset" / "cli.py").is_file():
        print(f"error: no reconset sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import rep_metrics
    from workloads import WORKLOADS, workload_ops

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # on SIGTERM, unwind: the running operation is killed and reaped, and the
    # working directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workload_ops(args.workload, args.seed, work)
        runner = Runner(time.monotonic())
        runner.setup_probe(work)  # fills the bytecode cache; not measured
        setups, plain, traced, layers = [], [], [], []
        ref = None
        loop_start = time.monotonic()
        rounds = 0
        while True:
            rounds += 1
            if not args.trace:
                setups += [runner.setup_probe(work) for _ in range(SETUP_PROBES)]
            d = work / f"chain{rounds}"
            procs = runner.chain(ops, d, traced=False)
            runner.judge(ops, procs, d, ref)
            plain.append(chain_metrics(ops, procs, d))
            if ref is None:
                ref = d  # kept: later chains must reproduce its outputs
            else:
                shutil.rmtree(d)
            if args.trace:
                d = work / f"traced{rounds}"
                procs = runner.chain(ops, d, traced=True)
                runner.judge(ops, procs, d, ref)
                traced.append(chain_metrics(ops, procs, d))
                files = [d / f"op{i}.spans.json" for i in range(len(ops))]
                spans = [json.loads(f.read_text()) for f in files if f.is_file()]
                if spans:  # an operation that wrote none is already counted failed
                    layers.append(rep_metrics(spans))
                    (WORK / f"last-trace-{args.workload}.json").write_text(json.dumps(spans))
                for missing in sorted({m for s in spans for m in s["missing"]}):
                    print(f"warning: no span {missing} in this version of reconset", file=sys.stderr)
                shutil.rmtree(d)
            now = time.monotonic()
            per_round = (now - loop_start) / rounds
            if (rounds >= MIN_CHAINS and now - loop_start + per_round > args.seconds) or now - runner.started > START_LIMIT_S:
                break

        print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of {len(ops)} operations")
        if args.trace:
            metrics = _median(layers)
            metrics["trace.overhead_s"] = end_to_end(traced)["total_s"] - end_to_end(plain)["total_s"]
            samples = {k: [m[k] for m in layers] for k in layers[0]}
        else:
            metrics = end_to_end(plain)
            metrics["setup_s"] = statistics.median(setups)
            per_chain = [end_to_end([c]) for c in plain]
            samples = {k: [c[k] for c in per_chain] for k in per_chain[0]}
            samples["setup_s"] = setups
        for name, values in samples.items():
            print(_summary(name, values))
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
