"""Tests of the benchmark itself (not part of the package test suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

liecurv = run._import_liecurv()

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class CorruptingCli:
    """Stands in for ``liecurv.cli``: runs the real CLI, then damages its output."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def run(self, argv):
        code = liecurv.cli.run(argv)
        out = Path(argv[argv.index("--output") + 1])
        out.write_text(self.corrupt(out.read_text()))
        return code


def perturb_first_numerator(text):
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6) + 1e-6)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_middle_row(text):
    lines = text.splitlines()
    del lines[len(lines) // 2]
    return "\n".join(lines) + "\n"


def fail_frac(name, tmp_path, corrupt=None):
    wl = workloads.make(name, 7, tmp_path)
    cli = liecurv.cli if corrupt is None else CorruptingCli(corrupt)
    rounds = run.Rounds(cli, wl, tmp_path)
    rounds.run()
    rounds.check(gates)
    return rounds.failed / rounds.attempted


@pytest.mark.parametrize("name", ["scan-dense", "scan-mhd"])
def test_scan_gate_catches_one_perturbed_numerator(name, tmp_path):
    assert fail_frac(name, tmp_path) == 0.0
    assert fail_frac(name, tmp_path, perturb_first_numerator) > 0.0


@pytest.mark.parametrize("name", ["geodesic-dense", "geodesic-torus"])
def test_geodesic_gate_catches_one_dropped_row(name, tmp_path):
    assert fail_frac(name, tmp_path) == 0.0
    assert fail_frac(name, tmp_path, drop_middle_row) > 0.0


def test_scan_gate_catches_a_wrong_summary(tmp_path):
    def flip_summary(text):
        return text.replace("negative=", "negative=1", 1)

    assert fail_frac("scan-mhd", tmp_path, flip_summary) == 1.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        wl = workloads.make(name, seed, tmp_path / sub)
        files = [(tmp_path / sub / f).read_bytes() for f in wl.files.values()]
        return wl.argv(Path("out"), Path("in")), files

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "c") != inputs(4, "d")


def test_divergence_free_state_is_divergence_free_with_unit_mean_energy():
    rows = workloads.divergence_free_state(np.random.default_rng(0), 2)
    energy, div, kmax = gates._energy_and_divergence(rows)
    assert div == 0.0 and kmax == 2
    assert energy == pytest.approx(4.0 * np.pi**2, rel=1e-14)


def test_self_times_of_a_nested_span_tree_sum_to_the_root():
    rec = tracing.SpanRecorder()
    # root [0, 10] with children a [1, 4] (child c [2, 3]) and b [5, 9]
    for name, start, end, parent in [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                                     ("c", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0)]:
        rec.name_id.append(rec.intern(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    own = rec.self_times()
    assert list(own) == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == pytest.approx(10.0)
    incl, own_by_name, calls = rec.totals()
    assert list(incl) == [10.0, 3.0, 1.0, 4.0] and list(calls) == [1, 1, 1, 1]


def _snapshot():
    modules = [m for n, m in sys.modules.items() if n == "liecurv" or n.startswith("liecurv.")]
    snap = {}
    for module in modules:
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("liecurv"):
                for cattr, cvalue in vars(value).items():
                    snap[(module.__name__, attr, cattr)] = cvalue
    return snap


def test_wrappers_patch_by_name_bindings_and_restore_everything():
    before = _snapshot()
    tracer = tracing.Tracer(liecurv)
    with tracer:
        cli = liecurv.cli
        for name in ("sample_planes", "curvature_numerator_semidirect",
                     "curvature_numerator_generic", "geodesic_rhs"):
            assert getattr(cli, name).__wrapped__ is before[("liecurv.cli", name)]
        assert liecurv.catalog.build_semidirect.__wrapped__ is before[
            ("liecurv.catalog", "build_semidirect")]
        assert liecurv.algebra.DenseBackend.inner.__wrapped__ is before[
            ("liecurv.algebra", "DenseBackend", "inner")]
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_round_writes_the_same_output_and_spans_cover_it(tmp_path):
    wl = workloads.make("scan-mhd", 5, tmp_path)
    rounds = run.Rounds(liecurv.cli, wl, tmp_path)
    tracer = tracing.Tracer(liecurv)
    rounds.run()
    with tracer:
        elapsed = rounds.run()
    metrics = tracer.round_metrics(rounds.output_bytes())
    assert len(rounds.outputs) == 1  # tracing leaves the output byte-identical
    own = tracer.rec.self_times()
    root = tracer.rec.end[0] - tracer.rec.start[0]
    assert tracer.rec.names[tracer.rec.name_id[0]] == "cli.run"
    assert own.sum() == pytest.approx(root, rel=1e-9)
    assert root <= elapsed
    assert metrics["curvature.planes"] == wl.ops_per_round
    assert metrics["torus.self_s"] > 0.5 * root
    assert metrics["torus.multiply.mode_pairs"] > 0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-mhd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
