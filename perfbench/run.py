#!/usr/bin/env python3
"""Benchmark of the landau_tfd library and its landau-tfd command line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # both workloads, both runs
    python3 perfbench/run.py --smoke                       # tiny sizes, checks metric names

Run from the root of a checkout; the library is imported from ``src``.
Each run draws one workload's CLI invocations from ``--seed`` (see
workloads.py) and is a closed loop: one client runs one invocation at a
time.  For ``--seconds`` it repeats three kinds of step, each taking
about its share of the time: a round of fresh ``python -m landau_tfd.cli``
processes (``wall_s``, ``peak_rss_mb``), a round of warm in-process calls
of ``landau_tfd.cli.main(argv)`` (``solve_s``), and a fresh interpreter
importing the package (``setup_s``).  A fixed calibration loop runs after
every step (``host.calib_s``).  Every output is validated (validate.py).

``--trace 1`` alternates untraced and traced in-process rounds instead
and reports per-layer metrics from the spans (tracing.py).  Timings are
medians over the run's samples, scaled to a reference host speed (see
CALIB_REF_S).  The report goes to stdout; its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Output files, spans and a full result record go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

os.environ.pop("TFD_SEED_THREADS", None)

import argparse
import gc
import hashlib
import json
import math
import platform
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

IMPORTTIME_RUNS = 3
COVERAGE_SLACK = 0.01
END_TO_END_SHARES = {"processes": 0.44, "solve": 0.40, "setup": 0.16}
TRACED_SHARES = {"untraced": 0.4, "traced": 0.6}

# The calibration loop's time on the reference host, a 2-core Intel Xeon
# VM, when it is quiet.  That host's speed drifts by 10-30 % over seconds
# to minutes, and the median of a raw timing drifts with it from one run
# to the next.  setup_s, wall_s and solve_s are therefore reported in
# reference-host seconds: each sample is multiplied by CALIB_REF_S over
# the calibration time measured around it.  The raw medians are in the
# report and in the result record.
CALIB_REF_S = 0.025


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TFD_SEED_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs child processes through spawn.py, which says why."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, cmd: list, stderr_path: Path) -> tuple:
        """Run one process to completion; return (wall_s, returncode, maxrss_bytes)."""
        req = {"cmd": cmd, "env": child_env(), "cwd": str(ROOT), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        return res["wall_s"], res["returncode"], res["maxrss_bytes"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def calibrate() -> float:
    """A fixed pure-Python and numpy loop; its time tracks the host, not the code."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(100_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def tail(values: list):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90, 99, 99.9):
        if len(values) * (100 - q) / 100 >= 10:
            best = (f"p{q:g}", statistics.quantiles(values, n=1000)[round(q * 10) - 1])
    return best


def timing(values: list, unit: str = "s") -> tuple:
    return statistics.median(values), unit, len(values), tail(values)


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": args.seed,
        "seconds": args.seconds,
    }


class Run:
    """One workload under one seed: its invocations, samples and verdicts."""

    def __init__(self, spawner: Spawner, workload: str, seed: int, seconds: float, smoke: bool):
        import landau_tfd
        import landau_tfd.cli
        import validate
        import workloads

        self.spawner, self.landau_tfd, self.cli, self.validate = spawner, landau_tfd, landau_tfd.cli, validate
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.ops = workloads.build(workload, seed, smoke)
        self.timed = [op for op in self.ops if op.timed]
        self.probes = [op for op in self.ops if not op.timed]
        self.warm_ops = [op for op in workloads.build(workload, seed, smoke=True) if op.timed]
        self.dir = OUT / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.verdicts: dict = {}  # argv -> (digest, ok, reason, stats)
        self.op_ok: dict = {}  # op label -> every invocation so far passed
        self.attempted = self.failed = 0
        self.failures: list = []
        self.harness_problems: list = []
        self.samples: dict = {"calib": []}

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- invocations ---------------------------------------------------

    def _out(self, op, how: str) -> Path:
        return self.dir / f"{op.label}.{how}.out"

    def judge(self, op, path: Path, returncode: int, stderr: str) -> bool:
        """Validate an output: fully the first time, by digest after that."""
        try:
            text = path.read_text()
        except FileNotFoundError:
            text = None
        digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else None
        key = tuple(op.argv)
        known = self.verdicts.get(key)
        if known and known[0] == digest and returncode == 0 and "Traceback" not in stderr:
            ok, reason = known[1], known[2]
        else:
            rng = random.Random(f"check:{self.seed}:{key}")
            ok, reason, stats = self.validate.check(op, text, returncode, stderr, rng)
            if known and ok and known[1]:
                ok, reason = False, "output differs from the first output of the same invocation"
            if not known:
                self.verdicts[key] = (digest, ok, reason, stats)
        if not ok:
            self.failures.append(f"{op.label}: {reason}")
        self.op_ok[op.label] = self.op_ok.get(op.label, True) and ok
        if op.timed:
            self.attempted += 1
            self.failed += not ok
        return ok

    def cli_process(self, op) -> tuple:
        out, err = self._out(op, "process"), self._out(op, "stderr")
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "landau_tfd.cli", *op.argv, "--out", str(out)]
        wall, rc, rss = self.spawner.run(cmd, err)
        self.judge(op, out, rc, err.read_text(errors="replace"))
        return wall, rss

    def in_process(self, op) -> tuple:
        """One warm call of cli.main; return (seconds, bytes of table output)."""
        out = self._out(op, "inproc")
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc, stderr = self.cli.main(argv), ""
        except Exception:  # a crash is a failed invocation, not a benchmark error
            rc, stderr = 1, traceback.format_exc()
        dt = time.perf_counter() - t0
        self.judge(op, out, rc, stderr)
        return dt, out.stat().st_size if out.exists() and op.rows else 0

    def warm_up(self) -> None:
        """Lazy set-up and first-use costs, on the smoke-sized invocations."""
        for op in self.warm_ops:
            self.in_process(op)

    # -- steps ---------------------------------------------------------

    def process_round(self) -> None:
        """Every timed op as a fresh process; the probes in-process."""
        walls, peaks = zip(*(self.cli_process(op) for op in self.timed))
        self.sample("wall_s", sum(walls))
        self.sample("peak_rss_mb", max(peaks) / 1e6)
        for op in self.probes:
            self.in_process(op)

    def solve_round(self, name: str = "solve_s") -> int:
        """Every timed op in-process; return the table bytes written."""
        times, sizes = zip(*(self.in_process(op) for op in self.timed))
        self.sample(name, sum(times))
        return sum(sizes)

    def setup_round(self) -> None:
        """Time one fresh interpreter importing the package."""
        cmd = [sys.executable, "-c", "import landau_tfd"]
        self.sample("setup_s", self.spawner.run(cmd, self.dir / "setup.stderr")[0])

    def import_times(self, n: int) -> dict:
        """Cumulative import time of each module, from -X importtime, median of n."""
        from tracing import MODULES

        cmd = [sys.executable, "-X", "importtime", "-c", "import landau_tfd; import landau_tfd.cli"]
        samples = {m: [] for m in MODULES}
        for _ in range(n):
            err = self.dir / "importtime.stderr"
            self.spawner.run(cmd, err)
            for line in err.read_text().splitlines():
                m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*landau_tfd\.(\w+)\s*$", line)
                if m and m.group(2) in samples:
                    samples[m.group(2)].append(int(m.group(1)) / 1e6)
        return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}

    def schedule(self, steps: dict, shares: dict) -> None:
        """Run steps for --seconds, each taking about its share of the time.

        The next step is the one furthest behind its share among those
        whose last duration still fits in the time left; every step runs
        at least once.  The calibration loop runs before the first step
        and after each one, and the mean of the two runs around a step is
        kept as ``<step>.calib``.
        """
        spent = {k: 0.0 for k in steps}
        last = {k: 0.0 for k in steps}
        before = calibrate()
        self.sample("calib", before)
        t_start = time.perf_counter()
        while True:
            left = self.seconds - (time.perf_counter() - t_start)
            fits = [k for k in steps if last[k] == 0.0 or last[k] <= left]
            if not fits:
                return
            k = min(fits, key=lambda k: spent[k] / shares[k])
            t0 = time.perf_counter()
            steps[k]()
            last[k] = time.perf_counter() - t0
            spent[k] += last[k]
            after = calibrate()
            self.sample("calib", after)
            self.sample(f"{k}.calib", (before + after) / 2)
            before = after


def host_normalized(run: Run, metric: str, step: str) -> list:
    """Samples scaled to the reference host speed by the calibration
    loop timed around each of them; see CALIB_REF_S."""
    return [v * CALIB_REF_S / c for v, c in zip(run.samples[metric], run.samples[f"{step}.calib"])]


def run_end_to_end(run: Run) -> dict:
    run.setup_round()  # fills the bytecode cache; not a sample
    run.samples.pop("setup_s")
    run.warm_up()
    run.schedule({"processes": run.process_round, "solve": run.solve_round, "setup": run.setup_round}, END_TO_END_SHARES)
    s = run.samples
    return {
        "setup_s": timing(host_normalized(run, "setup_s", "setup")),
        "wall_s": timing(host_normalized(run, "wall_s", "processes")),
        "solve_s": timing(host_normalized(run, "solve_s", "solve")),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]), "MB", len(s["peak_rss_mb"]), None),
        # share of the workload's invocations, probes included, that never failed
        "ok_ratio": (sum(run.op_ok.values()) / len(run.op_ok), "ratio", len(run.op_ok), None),
    }


def run_traced(run: Run, n_import: int) -> dict:
    import tracing

    imports = run.import_times(n_import)
    run.warm_up()
    tracer = tracing.Tracer()
    per_pass = []

    def traced() -> None:
        tracer.install(len(per_pass))
        try:
            nbytes = run.solve_round("traced_s")
        finally:
            tracer.uninstall()
        per_pass.append(tracing.pass_metrics(tracer, nbytes, run.samples["traced_s"][-1]))

    run.schedule({"untraced": lambda: run.solve_round("untraced_s"), "traced": traced}, TRACED_SHARES)
    tracer.save(run.dir / "spans.npz")
    for i, p in enumerate(per_pass):
        # coverage: every call of cli.main traced, and the layer self
        # times account for the traced solve time
        if p["cli.main.calls"] != len(run.timed) or not 0.0 <= p["trace.remainder_s"] <= COVERAGE_SLACK * p["trace.solve_s"]:
            run.harness_problems.append(
                f"trace coverage, pass {i}: cli.main.calls={p['cli.main.calls']} remainder={p['trace.remainder_s']:.3g} s"
            )
    traced_s = run.samples["traced_s"]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: (statistics.median(p[name] for p in per_pass), units[name], len(per_pass), None) for name in per_pass[0]}
    for m, value in imports.items():
        metrics[f"{m}.import_s"] = (value, "s", n_import, None)
    overhead = statistics.median(traced_s) / statistics.median(run.samples["untraced_s"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced_s), None)
    metrics["host.calib_s"] = timing(run.samples["calib"])
    return metrics


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def digits(err) -> float | None:
    """-log10 of an error, with errors of up to 4 ulp read as full precision."""
    return None if err is None else -math.log10(max(err, 4 * 2.0**-52))


def report(run: Run, env: dict, selfcheck: dict, metrics: dict, trace: int) -> None:
    print(f"# landau-tfd benchmark: workload={run.workload} seed={run.seed} seconds={run.seconds} trace={trace}")
    print("# env: " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}" for k, v in env.items()))
    print(
        f"# reference self-check: {selfcheck['digits_at_bho_1']:.2f} digits at beta*hbar*omega=1 "
        f"(need >= 13); library relative error at 1e-12: {selfcheck['rel_error_at_bho_1e-12']:.3g}"
    )
    for op in run.ops:
        print(f"# op {op.label}{'' if op.timed else ' (untimed probe)'}: landau-tfd {' '.join(op.argv)}")
    print(f"{'metric':44} {'value':>14} {'unit':>8} {'n':>5}  tail")
    for name, (value, unit, n, tl) in metrics.items():
        print(f"{name:44} {value:14.6g} {unit:>8} {n:5d}  {f'{tl[0]}={tl[1]:.6g}' if tl else ''}")
    if trace == 0:
        stats = [run.verdicts[tuple(op.argv)][3] for op in run.ops if tuple(op.argv) in run.verdicts]
        c_err = max((st["c_err"] for st in stats if "c_err" in st), default=None)
        r_err = max((st["rate_err"] for st in stats if "rate_err" in st), default=None)
        rows = sum(op.rows for op in run.timed)
        extra = {
            "fail_ratio": (1.0 - metrics["ok_ratio"][0], "ratio"),
            "rows_per_s": (rows / metrics["solve_s"][0] if rows else None, "1/s"),
            "c_digits": (digits(c_err), "digits"),
            "rate_digits": (digits(r_err), "digits"),
            "setup_s.raw": (statistics.median(run.samples["setup_s"]), "s"),
            "wall_s.raw": (statistics.median(run.samples["wall_s"]), "s"),
            "solve_s.raw": (statistics.median(run.samples["solve_s"]), "s"),
            "host.calib_s": (statistics.median(run.samples["calib"]), "s"),
        }
        for name, (value, unit) in extra.items():
            print(f"{name:44} {'n/a' if value is None else format(value, '14.6g'):>14} {unit:>8}")
    for failure in sorted(set(run.failures)) + run.harness_problems:
        print(f"# FAILED {failure}")


def run_one(args, spawner: Spawner, workload: str, trace: int) -> dict:
    import reference

    run = Run(spawner, workload, args.seed, args.seconds, args.smoke)
    selfcheck = reference.self_check(run.landau_tfd)
    metrics = run_traced(run, 1 if args.smoke else IMPORTTIME_RUNS) if trace else run_end_to_end(run)
    env = environment(args)
    report(run, env, selfcheck, metrics, trace)
    result = {
        "correct": selfcheck["ok"] and run.failed == 0 and not run.harness_problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    record = dict(
        result,
        workload=workload,
        env=env,
        selfcheck={str(k): v for k, v in selfcheck.items()},
        samples=run.samples,
        failures=sorted(set(run.failures)) + run.harness_problems,
    )
    with open(run.dir / f"result.trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def smoke_check(results: dict) -> list:
    """Every metric of BENCHMARK.json emitted once, by name and unit."""
    spec = benchmark_spec()
    problems = []
    for (workload, trace), res in results.items():
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            problems.append(
                f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                f"unit mismatch {sorted(k for k in set(want) & set(got) if want[k] != got[k])}"
            )
        if not res["correct"]:
            problems.append(f"{workload} trace={trace}: outputs not correct")
    return problems


def measure(args, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import landau_tfd

    if Path(landau_tfd.__file__).resolve().parent != SRC / "landau_tfd":
        print(f"error: imported landau_tfd from {landau_tfd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else benchmark_spec()["run_seconds"]

    workloads = ("tables", "verify") if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {(w, t): run_one(args, spawner, w, t) for w in workloads for t in traces}

    problems = smoke_check(results) if args.smoke else []
    for p in problems:
        print(f"# smoke: {p}")
    if args.smoke:
        print(f"# smoke: {'FAILED' if problems else 'ok'}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for (w, _), r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("tables", "verify", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check every metric name and unit")
    args = parser.parse_args(argv)

    for need in (SRC / "landau_tfd" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"error: {need} not found; run from the root of a landau-tfd checkout", file=sys.stderr)
            return 2
    spawner = Spawner()
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
