"""Benchmark of the liecurv CLI: scan and geodesic throughput, layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload scan-dense --seed 1 --seconds 25 --trace 0

Drives ``liecurv.cli.run(argv)`` in-process on generated inputs, repeating
whole invocations for ``--seconds``; throughput comes from the fastest
invocation and set-up time from the median of fresh processes.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from a traced run (see
``bench/README.md``).  Every output is checked after the timed rounds.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _import_liecurv():
    """Import liecurv from this checkout's ``src`` and nowhere else."""
    if not (SRC / "liecurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no liecurv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import liecurv
    import liecurv.cli  # noqa: F401

    if Path(liecurv.__file__).resolve().parent != (SRC / "liecurv").resolve():
        raise SystemExit(f"error: liecurv imported from {liecurv.__file__}, not {SRC}")
    return liecurv


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


class SetupProbe:
    """Times set-up in fresh processes, one at a time (see ``setup_probe.py``)."""

    def __init__(self, workload, input_dir: Path):
        self.cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *workload.selector]
        if "state" in workload.files:
            self.cmd.append(str(input_dir / workload.files["state"]))
        self.times: list[float] = []

    def run(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.split()[-1]))


class Rounds:
    """Runs whole CLI invocations and keeps each distinct output for checking."""

    def __init__(self, cli, workload, input_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out = input_dir / "output"
        self.argv = workload.argv(self.out, input_dir)
        self.outputs: dict[str, list] = {}  # sha256 -> [text, rounds]
        self.attempted = 0
        self.failed = 0

    def run(self) -> float:
        """One invocation; returns its wall time (inf if it failed to run)."""
        if self.out.exists():
            self.out.unlink()
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.run(self.argv)
        except Exception:  # a crash in the program is a failed round, not a benchmark error
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        self.attempted += self.workload.ops_per_round
        if code != 0 or not self.out.exists():
            print(f"round failed: exit code {code}", file=sys.stderr)
            self.failed += self.workload.ops_per_round
            return float("inf")
        data = self.out.read_bytes()
        entry = self.outputs.setdefault(hashlib.sha256(data).hexdigest(), [data, 0])
        entry[1] += 1
        return elapsed

    def output_bytes(self) -> int:
        return self.out.stat().st_size if self.out.exists() else 0

    def check(self, gates) -> None:
        """Count failed operations over every round, one check per distinct output."""
        for data, rounds in self.outputs.values():
            self.failed += rounds * gates.check(data.decode(), self.workload)


def measure(rounds: Rounds, probe: SetupProbe, seconds: float) -> list[float]:
    """Warm-up invocation, then invocations until ``seconds`` have passed.

    The set-up probes are spread evenly over the same window, so that both
    metrics sample the machine over the whole run rather than one stretch of it.
    """
    rounds.run()
    times = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(probe.times) < SETUP_REPEATS and elapsed >= len(probe.times) * seconds / SETUP_REPEATS:
            probe.run()
        elif times and elapsed >= seconds:
            return times
        else:
            times.append(rounds.run())


def measure_traced(rounds: Rounds, tracer, seconds: float):
    """Alternate untraced and traced invocations; per-layer metrics of each traced one.

    The alternation exposes both kinds of round to the same machine states, so
    their fastest rounds give the tracing overhead.
    """
    rounds.run()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(rounds.run())
        tracer.reset_counters()
        with tracer:
            traced.append(rounds.run())
        layers.append(tracer.round_metrics(rounds.output_bytes()))
        tracer.reset_counters()
    return plain, traced, layers


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    liecurv = _import_liecurv()
    sys.path.insert(0, str(BENCH_DIR))
    import gates
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    input_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    input_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, input_dir)
        rounds = Rounds(liecurv.cli, wl, input_dir)
        info = machine_info()
        if args.trace:
            tracer = Tracer(liecurv)
            plain, traced, layers = measure_traced(rounds, tracer, args.seconds)
            rounds.check(gates)
            metrics = {name: statistics.median(row[name] for row in layers)
                       for name in PER_LAYER_UNITS if name != "trace_overhead"}
            metrics["trace_overhead"] = min(plain) / min(traced)
            units = PER_LAYER_UNITS
            detail = {"rounds_untraced": len(plain), "rounds_traced": len(traced)}
            for name, value in metrics.items():
                print(f"{name} = {value:.6g} {units[name]}")
        else:
            probe = SetupProbe(wl, input_dir)
            times = measure(rounds, probe, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds.check(gates)
            setup = probe.times
            rates = [wl.ops_per_round / t for t in times]
            q1, med, q3 = quartiles(rates)
            best = max(rates)
            metrics = {
                "ops_per_s": best,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
            detail = {"rounds": len(times), f"{wl.op_name}_per_s_best": best,
                      f"{wl.op_name}_per_s_q1": q1, f"{wl.op_name}_per_s_median": med,
                      f"{wl.op_name}_per_s_q3": q3, "setup_s_all": setup}
            print(f"{wl.op_name}_per_s = {best:.6g} 1/s  (fastest of {len(times)} invocations "
                  f"of {wl.ops_per_round} {wl.op_name}; median {med:.6g}, "
                  f"quartiles {q1:.6g} .. {q3:.6g})")
            print(f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(setup)} fresh processes)")
            print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
        try:
            input_dir.parent.rmdir()
        except OSError:
            pass

    fail_frac = rounds.failed / rounds.attempted
    print(f"fail_frac = {fail_frac:.6g}  ({rounds.failed} of {rounds.attempted} {wl.op_name} failed)")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "why": wl.why,
                      "argv": rounds.argv, "machine": info, **detail}))
    print(json.dumps({
        "correct": rounds.failed == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed string hash fixes set and dict iteration order in the torus
        # calculus, so its summation order, mode counts and outputs repeat
        # exactly from one process to the next
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
