import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liecurv
from helpers import reference_combine, reference_random_element, reference_sample_planes, relerr

from liecurv import algebra, catalog, cli, configio, errors, sampling, semidirect, torus
from liecurv.algebra import MAX_DIM, DenseBackend, MetricAlgebraSpec
from liecurv.backend import Pair
from liecurv.cli import run
from liecurv.configio import (
    load_algebra_file,
    load_plane_file,
    load_semidirect_file,
    load_state_file,
)
from liecurv.errors import ConfigError, SamplingExhausted
from liecurv.semidirect import ActionSpec, build_semidirect, check_product_dim
from liecurv.sampling import sample_planes


SO3_FILE = """
[algebra]
name = so3-from-file
dim = 3
gram = diag: 1, 2, 3
structure =
    1 2 3 1.0
    2 3 1 1.0
    3 1 2 1.0
"""

BROKEN_FILE = """
[algebra]
dim = 3
gram = diag: 1, -1, 1
structure =
    1 2 3 1.0
"""

EUCLIDEAN_FILE = """
[g]
name = so3
dim = 3
gram = identity
structure =
    1 2 3 1.0
    2 3 1 1.0
    3 1 2 1.0

[h]
name = r3
dim = 3
gram = identity

[action]
entries =
    1 3 2 1.0
    1 2 3 -1.0
    2 3 1 -1.0
    2 1 3 1.0
    3 2 1 1.0
    3 1 2 -1.0
"""


# a Gram matrix that is not symmetric, with -1 on its diagonal
ASYMMETRIC_GRAM_FILE = """
[algebra]
dim = 3
gram = rows: 1 2 0; 0 1 0; 0 0 -1
structure =
    1 2 3 1.0
    2 3 1 1.0
    3 1 2 1.0
"""


@pytest.fixture()
def so3_file(tmp_path):
    path = tmp_path / "so3.cfg"
    path.write_text(SO3_FILE)
    return str(path)


class TestConfigFiles:
    def test_algebra_round_trip(self, so3_file):
        spec = load_algebra_file(so3_file)
        assert spec.dim == 3
        assert spec.name == "so3-from-file"
        np.testing.assert_allclose(spec.structure, catalog.so3().structure)
        np.testing.assert_allclose(spec.gram, np.diag([1.0, 2.0, 3.0]))

    def test_semidirect_file_matches_builtin(self, tmp_path):
        path = tmp_path / "euclid.cfg"
        path.write_text(EUCLIDEAN_FILE)
        sd = load_semidirect_file(str(path))
        np.testing.assert_allclose(sd.action.matrices, catalog.linear_so3_on_r3().action.matrices)

    def test_plane_file_finite(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text("[plane]\nx = 1 0 0\ny = 0 1 0\n")
        backend = catalog.resolve_algebra("so3")
        plane = load_plane_file(str(path), backend)
        np.testing.assert_allclose(plane.x, [1.0, 0.0, 0.0])

    def test_plane_file_semidirect_defaults_missing_parts(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text("[plane]\nx_g = 1 0 0\ny_h = 0 1 0\n")
        sd = catalog.resolve_semidirect("conjugation:so3")
        plane = load_plane_file(str(path), sd)
        np.testing.assert_allclose(plane.x.y, np.zeros(3))
        np.testing.assert_allclose(plane.y.x, np.zeros(3))

    def test_plane_file_torus(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text(
            "[plane]\n"
            "x_g =\n    sin 0 1 1.0 1\n"
            "y_h =\n    cos 1 0 1.0\n"
        )
        ps = catalog.resolve_semidirect("passive-scalar")
        plane = load_plane_file(str(path), ps)
        assert plane.x.x.comp1.modes == {(0, 1, "sin"): 1.0}
        assert plane.y.y.modes == {(1, 0, "cos"): 1.0}

    def test_state_file(self, tmp_path):
        path = tmp_path / "state.cfg"
        path.write_text("[state]\nu = 1 1 1\n")
        backend = catalog.resolve_algebra("so3:1,2,3")
        state = load_state_file(str(path), backend)
        np.testing.assert_allclose(state, np.ones(3))

    def test_bad_vector_length_rejected(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text("[plane]\nx = 1 0\ny = 0 1 0\n")
        with pytest.raises(ConfigError):
            load_plane_file(str(path), catalog.resolve_algebra("so3"))


#: Input files of the bad-input cases; argv entries naming one get its path.
BAD_INPUT_FILES = {
    "plane.cfg": "[plane]\nx = 1 0 0\ny = 0 1 0\n",
    "nan_plane.cfg": "[plane]\nx = 1 nan 0\ny = 0 1 0\n",
    "inf_sd_plane.cfg": "[plane]\nx_g = 1 0 0\ny_h = 0 inf 0\n",
    "torus_plane.cfg": "[plane]\nx_g =\n    sin 0 1 nan 1\ny_h =\n    cos 1 0 1.0\n",
    "state.cfg": "[state]\nu = 1 1 1\n",
    "inf_state.cfg": "[state]\nu = 1 -inf 1\n",
    "torus_state.cfg": "[state]\nu =\n    sin 0 1 1.0 1\n",
    "nan_torus_state.cfg": "[state]\nu =\n    sin 0 1 nan 1\n",
    "inf_algebra.cfg": "[algebra]\ndim = 3\nstructure =\n    1 2 3 inf\n",
    "empty_algebra.cfg": "[algebra]\ndim = 0\n",
    # Jacobi residual 1e-6: fails at the default tolerance whatever --tol says
    "jacobi_defect.cfg": "[algebra]\ndim = 3\nstructure =\n    1 2 3 1\n    1 3 1 1e-6\n",
    # one wavenumber past torus.MAX_WAVENUMBER = 32
    "k33_plane.cfg": "[plane]\nx =\n    cos 33 0 1.0 2\ny =\n    sin 0 1 1.0 1\n",
    "k33_state.cfg": "[state]\nu =\n    sin 0 1 1.0 1\n    cos -5 33 0.5 1\n    cos -5 33 0.5 2\n",
    # a Gram matrix of the wrong size, a diagonal structure entry, an action entry past
    # dim g, and a plain state without u
    "short_diag_algebra.cfg": "[algebra]\ndim = 3\ngram = diag: 1, 2\n",
    "short_rows_algebra.cfg": "[algebra]\ndim = 3\ngram = rows: 1 0; 0 1\n",
    "diagonal_entry_algebra.cfg": "[algebra]\ndim = 3\nstructure =\n    1 1 2 1.0\n",
    "g4_action.cfg": "[g]\ndim = 3\n[h]\ndim = 3\n[action]\nentries =\n    4 1 2 1.0\n",
    "empty_state.cfg": "[state]\n",
    # misspelled keys: alpha and x_g
    "typo_state.cfg": "[state]\nu = 1 1 1\nalpah = 0 1 0\n",
    "typo_sd_plane.cfg": "[plane]\nx = 1 0 0\ny_h = 0 1 0\n",
}

SCAN = ["scan", "--semidirect", "euclidean", "--seed", "1"]
GEODESIC = ["geodesic", "--algebra", "so3:1,2,3", "--state-file", "state.cfg", "--steps", "1"]
TORUS_GEODESIC = ["geodesic", "--algebra", "torus-vol", "--state-file", "torus_state.cfg",
                  "--steps", "1", "--format", "jsonl"]
ABOVE_WAVENUMBER_LIMIT = [
    ["curvature", "--algebra", "torus-vol", "--plane-file", "k33_plane.cfg"],
    ["geodesic", "--algebra", "torus-vol", "--state-file", "k33_state.cfg", "--dt", "0.01",
     "--steps", "1", "--format", "jsonl"],
    ["scan", "--algebra", "torus-vol", "--seed", "1", "--count", "1", "--band", "33"],
    TORUS_GEODESIC + ["--dt", "0.01", "--support-cap", "33"],
]
MISSPELLED_KEYS = [
    ["geodesic", "--semidirect", "euclidean", "--state-file", "typo_state.cfg", "--dt", "0.1",
     "--steps", "1"],
    ["curvature", "--semidirect", "euclidean", "--plane-file", "typo_sd_plane.cfg"],
]
#: random-solvable selectors with integer values that random_solvable cannot take
BAD_SOLVABLE = [["validate", "--algebra", f"random-solvable:{dim}:{seed}"]
                for dim, seed in ((1, 3), (0, 1), (3, -1))]
#: malformed files and selectors, with the cause each error names
NAMED_CAUSES = [
    (["validate", "--algebra-file", "short_diag_algebra.cfg"], "gram diagonal needs 3 entries, got 2\n"),
    (["validate", "--algebra-file", "short_rows_algebra.cfg"], "gram must be a 3x3 matrix\n"),
    (["validate", "--semidirect-file", "g4_action.cfg"], "action index out of range in: '4 1 2 1.0'\n"),
    (["validate", "--algebra-file", "diagonal_entry_algebra.cfg"],
     "diagonal structure entry forbidden: '1 1 2 1.0'\n"),
    (["geodesic", "--algebra", "so3", "--state-file", "empty_state.cfg", "--dt", "0.1", "--steps", "1"],
     "missing key 'u' in [state]\n"),
    (["validate", "--algebra", "so3:1,x,3"], "cannot parse Gram diagonal '1,x,3' for so3\n"),
    (["validate", "--semidirect", "euclidean:1"], "euclidean takes no parameters\n"),
    (["validate", "--semidirect", "linear-so3-on-r3:2"], "linear-so3-on-r3 takes no parameters\n"),
]


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "so3", "--tol", "nan"],
    ["scan", "--algebra", "so3:1,nan,3", "--seed", "1", "--count", "2"],
    ["scan", "--semidirect", "magnetic:so3:1,inf,3", "--seed", "1", "--count", "2"],
    ["validate", "--algebra-file", "inf_algebra.cfg"],
    ["validate", "--algebra-file", "empty_algebra.cfg"],
    ["curvature", "--algebra", "so3", "--plane-file", "plane.cfg", "--zero-tol", "-1"],
    ["curvature", "--algebra", "so3", "--plane-file", "plane.cfg", "--zero-tol", "inf"],
    ["curvature", "--algebra", "so3", "--plane-file", "nan_plane.cfg"],
    ["curvature", "--semidirect", "euclidean", "--plane-file", "inf_sd_plane.cfg"],
    ["curvature", "--semidirect", "passive-scalar", "--plane-file", "torus_plane.cfg"],
    SCAN + ["--count", "-3"],
    ["scan", "--algebra", "so3", "--seed", "-1", "--count", "1"],
    ["scan", "--semidirect", "mhd", "--seed", "1", "--count", "1", "--band", "-1"],
    SCAN + ["--count", "2", "--zero-tol", "-1"],
    SCAN + ["--count", "2", "--zero-tol", "nan"],
    GEODESIC + ["--dt", "nan"],
    GEODESIC + ["--dt", "inf"],
    GEODESIC + ["--dt", "-1"],
    ["geodesic", "--algebra", "so3:1,2,3", "--state-file", "state.cfg", "--dt", "0.1",
     "--steps", "0"],
    ["scan", "--algebra", "so3", "--family", "gg", "--seed", "1", "--count", "2"],
    ["geodesic", "--algebra", "so3:1,2,3", "--state-file", "inf_state.cfg", "--dt", "0.1",
     "--steps", "1"],
    TORUS_GEODESIC + ["--dt", "nan"],
    TORUS_GEODESIC + ["--dt", "0.01", "--support-cap", "-1"],
    ["geodesic", "--algebra", "torus-vol", "--state-file", "nan_torus_state.cfg", "--dt", "0.01",
     "--steps", "1", "--format", "jsonl"],
    ["validate", "--algebra-file", "jacobi_defect.cfg", "--tol", "1e-3"],
    ["validate", "--algebra", "so3", "--tol", "-1"],
    *ABOVE_WAVENUMBER_LIMIT,
    *MISSPELLED_KEYS,
    *BAD_SOLVABLE,
    *(argv for argv, _ in NAMED_CAUSES),
])
def test_bad_input_is_config_error(argv, tmp_path, capsys):
    assert _run_with_bad_input(argv, tmp_path, capsys).startswith("configuration error: ")


def _run_with_bad_input(argv, tmp_path, capsys) -> str:
    """Run argv on the bad-input files; it must exit 3 with empty stdout.  Returns stderr."""
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_INPUT_FILES else a for a in argv]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("argv,named", [
    *((argv, f"limit of {torus.MAX_WAVENUMBER}") for argv in ABOVE_WAVENUMBER_LIMIT[2:]),
    *((argv, f"limit |k|_inf <= {torus.MAX_WAVENUMBER}") for argv in ABOVE_WAVENUMBER_LIMIT[:2]),
    *zip(MISSPELLED_KEYS, ["unknown key 'alpah' in [state]", "unknown key 'x' in [plane]"]),
    *zip(BAD_SOLVABLE, ["random-solvable dimension 1 is below 2\n",
                        "random-solvable dimension 0 is below 2\n",
                        "random-solvable seed -1 is negative\n"]),
    *NAMED_CAUSES,
])
def test_config_error_names_the_cause(argv, named, tmp_path, capsys):
    assert named in _run_with_bad_input(argv, tmp_path, capsys)


def _algebra_section(name, dim):
    return f"[{name}]\ndim = {dim}\n"


@pytest.mark.parametrize("argv,files", [
    (["scan", "--algebra", f"random-solvable:{MAX_DIM + 1}:1", "--seed", "1", "--count", "1"], {}),
    (["scan", "--semidirect", f"magnetic:random-solvable:{MAX_DIM + 1}:1", "--seed", "1",
      "--count", "1"], {}),
    (["validate", "--algebra-file", "big.cfg"], {"big.cfg": _algebra_section("algebra", MAX_DIM + 1)}),
    (["validate", "--semidirect-file", "big.cfg"],
     {"big.cfg": _algebra_section("g", 1) + _algebra_section("h", MAX_DIM + 1) + "[action]\n"}),
])
def test_dimension_above_the_limit_is_config_error(argv, files, tmp_path, capsys, monkeypatch):
    zeros = np.zeros

    def checked_zeros(shape, *args, **kwargs):  # the (dim, dim, dim) structure allocation
        assert MAX_DIM + 1 not in np.atleast_1d(shape), "allocated before the dimension check"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", checked_zeros)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert f"{MAX_DIM + 1}" in captured.err and f"limit of {MAX_DIM}" in captured.err


def test_product_dimension_limit():
    assert check_product_dim(MAX_DIM // 2, MAX_DIM // 2) == MAX_DIM
    for ng, nh in ((MAX_DIM // 2 + 1, MAX_DIM // 2 + 1), (1, MAX_DIM)):
        with pytest.raises(ConfigError, match=rf"product dimension {ng + nh} \({ng} \+ {nh}\) "
                                              rf"exceeds the limit of {MAX_DIM}$"):
            check_product_dim(ng, nh)


# magnetic:random-solvable:9:1 has dimension 18, just over a product limit lowered to 17,
# as magnetic:random-solvable:129:1 is over MAX_DIM; at 129 the factors alone take
# tens of seconds to validate
SMALL_LIMIT, OVERSIZED = 17, "magnetic:random-solvable:9:1"


@pytest.mark.parametrize("task", ["validate", "geodesic"])
def test_product_dimension_above_the_limit_is_config_error(task, tmp_path, capsys, monkeypatch):
    state = tmp_path / "state.cfg"
    state.write_text(f"[state]\nu = {' 0.1' * 9}\nalpha = {' 0.1' * 9}\n")
    monkeypatch.setattr(semidirect, "MAX_DIM", SMALL_LIMIT)
    zeros = np.zeros

    def checked_zeros(shape, *args, **kwargs):  # the (18, 18, 18) product structure
        assert np.ndim(shape) == 0 or len(shape) < 3 or shape[0] != 18, \
            "allocated before the dimension check"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", checked_zeros)
    argv = {"validate": ["validate"],
            "geodesic": ["geodesic", "--state-file", str(state), "--dt", "0.1", "--steps", "1"]}
    assert run(argv[task] + ["--semidirect", OVERSIZED]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"configuration error: product dimension 18 (9 + 9) "
                            f"exceeds the limit of {SMALL_LIMIT}\n")


def test_scan_of_a_product_above_the_limit_runs(capsys, monkeypatch):
    monkeypatch.setattr(semidirect, "MAX_DIM", SMALL_LIMIT)
    assert run(["scan", "--semidirect", OVERSIZED, "--seed", "1", "--count", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_with_src(argv, check=True):
    src = str(Path(liecurv.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=check)


def test_import_loads_no_scipy():
    code = ("import sys, liecurv, liecurv.cli\n"
            "from liecurv import DenseBackend, catalog, exact_conjugation_solution\n"
            "exact_conjugation_solution(DenseBackend(catalog.so3()), [1, 0, 0], [0, 1, 0], 1.0)\n"
            "print([m for m in sys.modules if m.startswith('scipy')])")
    assert _run_with_src(["-c", code]).stdout == "[]\n"


def test_kirchhoff_demo_runs():
    out = _run_with_src([str(SCRIPTS / "kirchhoff_demo.py"), "--steps", "200"]).stdout
    defects = [float(line.split()[-1]) for line in out.splitlines() if "orthogonality defect" in line]
    assert len(defects) == 1 and defects[0] <= 1e-12


@pytest.mark.parametrize("dt", ["50", "1e300"])
def test_kirchhoff_demo_blow_up_is_one_line(dt):
    proc = _run_with_src([str(SCRIPTS / "kirchhoff_demo.py"), "--dt", dt, "--steps", "2"], check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: NonFiniteState: ")


def test_cli_digest_compare_reports_moved_cells(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    outputs = {
        # one mode moves by an ulp, one is printed by the parent only, one by the change only
        "001.out": ('{"t":0.0,"u":[["cos",1,0,1.0,1],["sin",0,1,-2.0,1]],"energy":5.0}\n',
                    '{"t":0.0,"u":[["cos",1,0,1.0000000000000002,1],["sin",0,2,1e-20,1]],'
                    '"energy":5.0}\n'),
        "002.out": ("t,u1\n0.0,1.0\n", "t,u1\n0.0,1.0\n"),
        "003.out": ("a,b\n1.0,-3.0\n", "a,b\n1.0,3.0\n"),
    }
    for side, directory in enumerate((parent, change)):
        directory.mkdir()
        for name, texts in outputs.items():
            (directory / name).write_text(texts[side])
    out = _run_with_src([str(SCRIPTS / "cli_digest.py"), "--compare", str(parent), str(change)]).stdout
    lines = out.splitlines()  # "NNN argv: report" per output that differs, then a count
    assert [line.split(" ", 1)[0] for line in lines[:2]] == ["001", "003"]
    assert [line.split(": ", 1)[1] for line in lines[:2]] == [
        "3/5 numeric cells moved; largest relative change above 1e-12 of the record 1.0e+00; "
        "largest change relative to the record 4.0e-01; sign changes 1; "
        "modes on one side only 2; text cells changed 0",
        "1/2 numeric cells moved; largest relative change above 1e-12 of the record 2.0e+00; "
        "largest change relative to the record 2.0e+00; sign changes 1; "
        "modes on one side only 0; text cells changed 0",
    ]
    assert lines[2:] == ["2 of 3 outputs differ"]


@pytest.mark.parametrize("script,args,named", [
    ("kirchhoff_demo.py", ["--steps", "0"], "argument --steps"),
    ("kirchhoff_demo.py", ["--steps", "-5"], "argument --steps"),
    ("kirchhoff_demo.py", ["--dt", "nan"], "argument --dt"),
    ("kirchhoff_demo.py", ["--inertia", "1", "2", "-3"], "FAIL gram_positive_definite"),
    ("stability_scan.py", ["--band", "40"], "argument --band"),
    ("stability_scan.py", ["--seed", "-1"], "argument --seed"),
    ("stability_scan.py", ["--band", "-1"], "argument --band"),
    ("stability_scan.py", ["--count", "-3"], "argument --count"),
])
def test_script_refuses_bad_arguments(script, args, named):
    proc = _run_with_src([str(SCRIPTS / script), *args], check=False)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert named in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv", [
    ["scan", "--algebra", "so3", "--seed", "1", "--count", "1"],
    ["geodesic", "--algebra", "so3:1,2,3", "--state-file", "state.cfg", "--dt", "0.1",
     "--steps", "1"],
])
def test_unwritable_output_is_config_error(argv, tmp_path, capsys):
    (tmp_path / "state.cfg").write_text(BAD_INPUT_FILES["state.cfg"])
    argv = [str(tmp_path / "state.cfg") if a == "state.cfg" else a for a in argv]
    out = tmp_path / "a-directory"
    out.mkdir()
    assert run(argv + ["--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_value_error_inside_a_computation_is_numerical_failure(monkeypatch, capsys):
    def broken(self, x, y):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(DenseBackend, "ad_transpose", broken)
    argv = ["scan", "--semidirect", "magnetic:so3:1,2,3", "--seed", "1", "--count", "3"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ValueError: operands could not")


NUMERICAL_FAILURES = (errors.MidpointDivergence, errors.NonFiniteState, errors.SamplingExhausted,
                      ValueError)


@pytest.mark.parametrize("error", [*errors.LiecurvError.__subclasses__(), ValueError],
                         ids=lambda error: error.__name__)
def test_exit_code_policy(error, monkeypatch, capsys):
    """Every error a task raises gets the exit code and stderr prefix the README lists."""
    def fail(args):
        raise error("the cause")

    monkeypatch.setitem(cli._TASKS, "validate", fail)
    if error is errors.ConfigError:
        code, err = 3, "configuration error: the cause\n"
    elif error in NUMERICAL_FAILURES:
        code, err = 2, f"numerical failure: {error.__name__}: the cause\n"
    else:
        code, err = 1, f"validation failure: {error.__name__}: the cause\n"
    assert run(["validate", "--algebra", "so3"]) == code
    assert capsys.readouterr() == ("", err)


class TestValidateCommand:
    def test_builtin_passes(self, capsys):
        assert run(["validate", "--algebra", "so3"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_semidirect_builtin_passes(self, capsys):
        assert run(["validate", "--semidirect", "magnetic:so3:1,2,3"]) == 0

    def test_product_named_after_the_selector(self, capsys):
        assert run(["validate", "--semidirect", "euclidean"]) == 0
        assert "validation of euclidean (product): pass\n" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]], ids=["default-tol", "tol-0"])
    @pytest.mark.parametrize("flag, selector, products", [
        ("--algebra", "torus-vol", 4), ("--algebra", "torus-full", 5), ("--semidirect", "mhd", 10),
        ("--semidirect", "passive-scalar", 7), ("--semidirect", "compressible", 9),
    ])
    def test_torus_backend_spot_checks(self, flag, selector, products, tol, monkeypatch, capsys):
        # one product per torus operator, over every band-1 triple at once
        calls = []
        original = torus.multiply

        def counted(f, g):
            calls.append(1)
            return original(f, g)

        monkeypatch.setattr(torus, "multiply", counted)
        # band-1 residuals are exactly zero, so even --tol 0 passes
        assert run(["validate", flag, selector, *tol]) == 0
        assert capsys.readouterr().out.startswith(f"validation of {selector}: pass\n")
        assert len(calls) == products

    def test_failing_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text(BROKEN_FILE)
        assert run(["validate", "--algebra-file", str(path)]) == 1
        assert "gram_positive_definite" in capsys.readouterr().out

    def test_unfactorised_gram_not_reported(self, tmp_path, capsys):
        # an asymmetric Gram matrix is never factorised, so no line claims it positive definite
        path = tmp_path / "asymmetric.cfg"
        path.write_text(ASYMMETRIC_GRAM_FILE)
        assert run(["validate", "--algebra-file", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "validation of algebra: FAIL",
            "  ok   antisymmetry",
            "  ok   jacobi",
            "  FAIL gram_symmetric: residual 1.000e+00",
        ]

    @pytest.mark.parametrize("argv, product", [
        (["--semidirect", "magnetic:so3:1,2,3"], True),
        (["--semidirect-file", "euclidean.cfg"], True),
        (["--algebra", "so3"], False),
        (["--algebra-file", "so3.cfg"], False),
    ], ids=["selector-product", "file-product", "selector-algebra", "file-algebra"])
    def test_each_spec_validated_once(self, argv, product, tmp_path, monkeypatch, capsys):
        (tmp_path / "euclidean.cfg").write_text(EUCLIDEAN_FILE)
        (tmp_path / "so3.cfg").write_text(SO3_FILE)
        monkeypatch.chdir(tmp_path)
        specs = _record_calls(monkeypatch, algebra.validate)
        actions = _record_calls(monkeypatch, semidirect.validate_action)
        assert run(["validate", *argv]) == 0
        # a product: each factor once while resolving, then the assembled product
        assert len(specs) == len({id(s) for s in specs}) == (3 if product else 1)
        assert specs[-1].name.endswith(" (product)") == product
        assert len(actions) == (1 if product else 0)
        assert capsys.readouterr().out.count("validation of ") == (4 if product else 1)

    def test_no_backend_given_is_config_error(self):
        assert run(["validate"]) == 3

    def test_both_backends_given_is_config_error(self):
        assert run(["validate", "--algebra", "so3", "--semidirect", "euclidean"]) == 3


def _record_calls(monkeypatch, fn):
    """The first arguments of the calls of ``fn``, through every liecurv module binding it."""
    seen = []

    def recorded(*args, **kwargs):
        seen.append(args[0])
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("liecurv") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, recorded)
    return seen


def _edited(spec, structure=(), gram=()):
    """``spec`` with the entries ``(index, value)`` of ``structure`` and ``gram`` replaced."""
    c, g = spec.structure.copy(), spec.gram.copy()
    for array, entries in ((c, structure), (g, gram)):
        for index, value in entries:
            array[index] = value
    return MetricAlgebraSpec(c, g)


def _action_with(g, h, mats, index):
    """The product by ``mats``, with the entry ``index`` moved by 1e-11."""
    mats = mats.copy()
    mats[index] += 1e-11
    return build_semidirect(g, h, ActionSpec(mats))


def _so3_ad():
    return DenseBackend(catalog.so3()).ad(np.eye(3))


#: Specs with one residual of 1e-11, the flag that reads them, and the exact line
#: that fails them at --tol 1e-12.
THRESHOLD_CASES = {
    "antisymmetry": (  # c[0, 1, 2] without its antisymmetric partner
        "--algebra-file",
        lambda: _edited(catalog.abelian(3), [((0, 1, 2), 1e-11)]),
        "  FAIL antisymmetry at (0, 1, 2): residual 1.000e-11",
    ),
    "jacobi": (
        "--algebra-file",
        lambda: _edited(catalog.so3(), [((0, 1, 0), 1e-11), ((1, 0, 0), -1e-11)]),
        "  FAIL jacobi at (0, 1, 2): residual 1.000e-11",
    ),
    "gram_symmetric": (
        "--algebra-file",
        lambda: _edited(catalog.so3(), gram=[((0, 1), 1e-11)]),
        "  FAIL gram_symmetric: residual 1.000e-11",
    ),
    "derivation": (  # ad(e1) on so(3), off the derivations by 1e-11; abelian g keeps it a homomorphism
        "--semidirect-file",
        lambda: _action_with(catalog.abelian(1), catalog.so3(), _so3_ad()[:1], (0, 0, 0)),
        "  FAIL derivation at (0, 0, 1, 2): residual 1.000e-11",
    ),
    "homomorphism": (  # so(3) on abelian R^3, where every matrix is a derivation
        "--semidirect-file",
        lambda: _action_with(catalog.so3(), catalog.abelian(3), _so3_ad(), (0, 2, 1)),
        "  FAIL homomorphism at (0, 1, 0, 1): residual 1.000e-11",
    ),
}


class TestValidateTolerance:
    @pytest.mark.parametrize("invariant", THRESHOLD_CASES)
    def test_residual_between_tolerances(self, invariant, monkeypatch, capsys):
        flag, make, fail_line = THRESHOLD_CASES[invariant]
        loader = {"--algebra-file": "load_algebra_file", "--semidirect-file": "load_semidirect_file"}[flag]
        monkeypatch.setattr(configio, loader, lambda path: make())
        assert run(["validate", flag, "spec.cfg"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert run(["validate", flag, "spec.cfg", "--tol", "1e-12"]) == 1
        assert fail_line in capsys.readouterr().out.splitlines()

    def test_torus_adjointness_between_tolerances(self, monkeypatch, capsys):
        ad_transpose = torus.VolumeFieldBackend.ad_transpose
        monkeypatch.setattr(torus.VolumeFieldBackend, "ad_transpose",
                            lambda self, x, y: ad_transpose(self, x, y) * (1 + 1e-11))
        assert run(["validate", "--algebra", "torus-vol"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert run(["validate", "--algebra", "torus-vol", "--tol", "1e-12"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "validation of torus-vol: FAIL",
            "  FAIL adjointness: residual 1.000e-11",
        ]

    def test_torus_nan_residual_fails(self, monkeypatch, capsys):
        ad_transpose = torus.VolumeFieldBackend.ad_transpose
        monkeypatch.setattr(torus.VolumeFieldBackend, "ad_transpose",
                            lambda self, x, y: ad_transpose(self, x, y) * np.nan)
        assert run(["validate", "--algebra", "torus-vol"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "validation of torus-vol: FAIL",
            "  FAIL adjointness: residual nan",
        ]
        # one nan among finite residuals is the worst one too
        assert np.isnan(cli._worst_residual(np.array([0.0, np.nan, 2.0]), np.zeros(3)))

    @pytest.mark.parametrize("tol", ["1e-10", "0"])
    def test_nan_residual_fails(self, tol, monkeypatch, capsys):
        spec = _edited(catalog.so3(), [((0, 1, 2), np.nan)])
        monkeypatch.setattr(configio, "load_algebra_file", lambda path: spec)
        assert run(["validate", "--algebra-file", "spec.cfg", "--tol", tol]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  FAIL antisymmetry at (0, 1, 2): residual nan (non-finite structure constant)" in out

    @pytest.mark.parametrize("tol", ["1e-10", "0"])
    def test_overflowing_action_scale_fails(self, tol, tmp_path, capsys):
        # a finite action entry of 1e200, whose homomorphism scale 1e200^2 overflows:
        # no tolerance can judge the check, so it fails as a nan residual does
        path = tmp_path / "sd.cfg"
        path.write_text(EUCLIDEAN_FILE.replace("    1 3 2 1.0\n", "    1 3 2 1e200\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", "--semidirect-file", str(path), "--tol", tol]) == 1
        assert capsys.readouterr() == (
            "validation of action: FAIL\n"
            "  ok   shape\n"
            "  ok   derivation\n"
            "  FAIL homomorphism at (0, 1, 0, 1): residual nan (scale overflows)\n", "")

    @pytest.mark.parametrize("tol", ["1e-10", "0"])
    def test_overflowing_jacobi_scale_fails(self, tol, tmp_path, capsys):
        # [e1, e2] = 1e200 e3 keeps the Jacobi identity, but the scale max|c|^2 overflows
        path = tmp_path / "so3.cfg"
        path.write_text("[algebra]\ndim = 3\nstructure =\n    1 2 3 1e200\n    2 3 1 1\n    3 1 2 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", "--algebra-file", str(path), "--tol", tol]) == 1
        assert capsys.readouterr() == (
            "validation of algebra: FAIL\n"
            "  ok   antisymmetry\n"
            "  ok   gram_symmetric\n"
            "  ok   gram_positive_definite\n"
            "  FAIL jacobi at (0, 0, 0): residual nan (scale overflows)\n", "")

    def test_refused_spec_judged_at_tol(self, tmp_path, capsys):
        # refused while resolving at the default tolerance; its Gram asymmetry of 1e-11
        # passes there and fails at 1e-12
        path = tmp_path / "so3.cfg"
        path.write_text("[algebra]\ndim = 3\ngram = rows: 1 1e-11 0; 0 1 0; 0 0 1\n"
                        "structure =\n    1 2 3 1\n    2 3 1 1\n    3 1 2 1\n    1 2 1 1e-9\n")
        assert run(["validate", "--algebra-file", str(path), "--tol", "1e-12"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "validation of algebra: FAIL",
            "  ok   antisymmetry",
            "  ok   gram_positive_definite",
            "  FAIL jacobi at (0, 1, 2): residual 1.000e-09",
            "  FAIL gram_symmetric: residual 1.000e-11",
        ]


class TestCurvatureCommand:
    def test_generic_plane_csv(self, tmp_path, capsys):
        plane = tmp_path / "p.cfg"
        plane.write_text("[plane]\nx = 1 0 0\ny = 0 1 0\n")
        assert run(["curvature", "--algebra", "so3", "--plane-file", str(plane)]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header.startswith("plane_id,numerator,denominator,sectional,sign,")
        cells = row.split(",")
        assert float(cells[1]) == pytest.approx(0.25)
        assert cells[4] == "+"

    def test_semidirect_terms_in_output(self, tmp_path, capsys):
        plane = tmp_path / "p.cfg"
        plane.write_text("[plane]\nx_g = 1 0 0\nx_h = 1 0 0\ny_g = 0 1 0\ny_h = 0 1 0\n")
        assert run([
            "curvature", "--semidirect", "conjugation:so3", "--plane-file", str(plane),
            "--format", "jsonl",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["numerator"] == pytest.approx(0.5, abs=1e-10)
        assert len(record["terms"]) == 18
        assert record["terms"]["curv_g"] == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_plane_exits_one(self, tmp_path, capsys):
        plane = tmp_path / "p.cfg"
        plane.write_text("[plane]\nx = 1 0 0\ny = 2 0 0\n")
        assert run(["curvature", "--algebra", "so3", "--plane-file", str(plane)]) == 1
        assert "DegeneratePlane" in capsys.readouterr().err

    def test_missing_plane_file_is_config_error(self):
        assert run(["curvature", "--algebra", "so3", "--plane-file", "/nonexistent.cfg"]) == 3


def _element_lines(element):
    """The plane-file lines of an element: its coordinates, or its torus mode lines."""
    lines = configio.element_to_jsonable(element)
    return [lines] if isinstance(element, np.ndarray) else lines


class TestScanCommand:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["scan", "--semidirect", "conjugation:so3", "--seed", "7", "--count", "100"]
        assert run(base + ["--output", str(out1)]) == 0
        assert run(base + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_counts_sum(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        assert run([
            "scan", "--semidirect", "magnetic:so3:1,2,3", "--seed", "11", "--count", "50",
            "--format", "jsonl", "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["count"] == 50
        assert summary["negative"] + summary["zero"] + summary["positive"] == 50
        assert len(lines) == 51

    def test_flat_sections_scan_all_zero_signs(self, tmp_path):
        out = tmp_path / "flat.jsonl"
        assert run([
            "scan", "--semidirect", "passive-scalar", "--seed", "3", "--count", "25",
            "--family", "contains-h", "--format", "jsonl", "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["zero"] == 25

    def test_torus_output_independent_of_hash_seed(self):
        # the torus calculus must not sum in an order that depends on str hashing
        argv = [sys.executable, "-m", "liecurv.cli", "scan", "--semidirect", "mhd",
                "--seed", "3", "--count", "2", "--band", "1"]
        src = str(Path(liecurv.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("backend", [
        ["--semidirect", "mhd", "--band", "2", "--count", "3"],
        ["--algebra", "torus-vol", "--band", "8", "--count", "2"],  # sums BLAS would block
    ])
    def test_torus_output_independent_of_blas_threads(self, backend):
        # torus products are BLAS matrix products; their sums must not depend on threads
        argv = [sys.executable, "-m", "liecurv.cli", "scan", *backend, "--seed", "1"]
        src = str(Path(liecurv.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("selector", ["magnetic:random-solvable:8:1", "mhd"])
    def test_planes_evaluated_in_one_call(self, selector, monkeypatch, capsys):
        seen = []
        numerator = cli.curvature_numerator_semidirect
        monkeypatch.setattr(cli, "curvature_numerator_semidirect",
                            lambda sd, p, q: seen.append(p) or numerator(sd, p, q))
        argv = ["scan", "--semidirect", selector, "--seed", "2", "--count", "2", "--band", "1"]
        assert run(argv) == 0
        assert len(seen) == 1
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize("selector,band", [("magnetic:random-solvable:8:1", 2),
                                               ("passive-scalar", 1)])
    def test_curvature_prints_the_scanned_numerator(self, selector, band, tmp_path, capsys):
        argv = ["scan", "--semidirect", selector, "--seed", "4", "--count", "6", "--band", str(band)]
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        planes = sample_planes(catalog.resolve_semidirect(selector), seed=4, count=6, band=band)
        assert len(rows) == len(planes) == 6
        for plane, row in zip(planes, rows):
            path = tmp_path / "plane.cfg"
            parts = {"x_g": plane.x.x, "x_h": plane.x.y, "y_g": plane.y.x, "y_h": plane.y.y}
            path.write_text("[plane]\n" + "".join(
                f"{key} =\n" + "".join(f"    {' '.join(map(str, line))}\n"
                                       for line in _element_lines(value))
                for key, value in parts.items()))
            assert run(["curvature", "--semidirect", selector, "--plane-file", str(path)]) == 0
            printed = capsys.readouterr().out.splitlines()[1].split(",")
            scanned = row.split(",")
            for cell in (1, 2, 3):  # numerator, denominator, sectional
                assert relerr(float(printed[cell]), float(scanned[cell])) <= 1e-13
            assert printed[4] == scanned[4]

    def test_count_zero_is_valid(self, capsys):
        assert run(["scan", "--semidirect", "euclidean", "--seed", "1", "--count", "0"]) == 0

    def test_seed_required(self):
        assert run(["scan", "--semidirect", "euclidean", "--count", "5"]) == 3

    def test_unknown_selector_is_config_error(self, capsys):
        assert run(["scan", "--semidirect", "nope:so3", "--seed", "1", "--count", "1"]) == 3


class TestSamplePlanes:
    def test_orthonormal_legs(self):
        backend = catalog.resolve_algebra("so3:1,2,3")
        planes = sample_planes(backend, seed=7, count=3)
        for plane in planes:
            assert abs(backend.inner(plane.x, plane.y)) <= 1e-12
            assert backend.inner(plane.x, plane.x) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        backend = catalog.resolve_algebra("so3")
        a = sample_planes(backend, seed=5, count=4)
        b = sample_planes(backend, seed=5, count=4)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.x, pb.x)
            np.testing.assert_array_equal(pa.y, pb.y)

    def test_count_zero(self):
        assert sample_planes(catalog.resolve_algebra("so3"), seed=1, count=0) == []

    @pytest.mark.parametrize("selector,band,count", [
        ("so3:1,2,3", 2, 25), ("magnetic:so3:1,2,3", 2, 25), ("magnetic:random-solvable:8:1", 2, 25),
        *((name, band, 3) for name in ("passive-scalar", "compressible", "mhd", "torus-vol", "torus-full")
          for band in (0, 1, 2, 4)),
        ("torus-vol", 32, 1),
        # contains-h rejects draws in the first block and in the second
        ("magnetic:random-solvable:2:1", 2, 214), ("passive-scalar", 0, 31),
        # a wide non-identity Gram
        ("gram40", 2, 50),
    ])
    def test_planes_match_reference_combination(self, selector, band, count):
        if selector == "gram40":
            a = np.random.default_rng(40).standard_normal((40, 40))
            backend = DenseBackend(MetricAlgebraSpec(structure=np.zeros((40, 40, 40)),
                                                     gram=a @ a.T + 40.0 * np.eye(40)))
            families = ("full",)
        else:
            try:
                backend = catalog.resolve_semidirect(selector)
                families = sampling.FAMILIES
            except ConfigError:
                backend = catalog.resolve_algebra(selector)
                families = ("full",)

        def hexes(planes):
            def flat(e):
                if isinstance(e, Pair):
                    return flat(e.x) + flat(e.y)
                if isinstance(e, np.ndarray):
                    return e.tolist()
                return [e.c.shape, *e.c.view(float).ravel().tolist()]  # torus: grid and coefficients
            return [[v.hex() if isinstance(v, float) else v for v in flat(leg)]
                    for plane in planes for leg in (plane.x, plane.y)]

        def draw(sampler, family):
            try:
                return hexes(sampler(backend, seed=13, count=count, family=family, band=band))
            except SamplingExhausted as exc:  # hh planes of scalar backends at band 0: one h mode
                return str(exc)

        for family in families:
            planes = draw(sample_planes, family)
            assert planes == draw(reference_sample_planes, family)  # float.hex tells -0.0 from 0.0
            assert planes != [] and (isinstance(planes, str) or len(planes) == 2 * count)

    @pytest.mark.parametrize("selector,band,count", [("magnetic:random-solvable:2:1", 2, 214),
                                                    ("passive-scalar", 0, 31)])
    def test_contains_h_rejections_span_blocks(self, selector, band, count):
        """The draws that the sampler's first block of ``count`` attempts rejects,
        and a rejection in the block that replaces them."""
        backend = catalog.resolve_semidirect(selector)
        rng = sampling.rng_for_seed(13)
        rejected = []
        for attempt in range(2 * count):
            x, y = (reference_random_element(backend, rng, band=band, part=part) for part in (None, "h"))
            cos = backend.inner(x, y) / (backend.norm(x) * backend.norm(y))
            if 1.0 - cos * cos < 0.05:
                rejected.append(attempt)
        first = [i for i in rejected if i < count]
        assert first and any(count <= i < count + len(first) for i in rejected)

    def test_family_needs_semidirect(self):
        with pytest.raises(ValueError):
            sample_planes(catalog.resolve_algebra("so3"), seed=1, count=1, family="gg")

    def test_dense_combination_is_the_running_sum_with_its_signed_zeros(self):
        coeffs = np.array([
            [0.0, 1.5, -2.0, 0.5],
            [-0.0, 1.5, -2.0, 0.5],
            [0.0, -0.0, -1.0, -3.0],
            [-0.0, 0.0, -1.0, -3.0],
            [-1.0, -0.0, -2.0, -0.5],  # every sign bit set: the zero sums to -0
            [-1.0, 0.0, -2.0, -0.5],
            [-0.0, -0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0, 0.0],
            np.random.default_rng(9).standard_normal(4),
        ])
        combined = sampling._combine(np.eye(4), coeffs)
        expected = reference_combine(np.eye(4), coeffs)
        assert [v.hex() for v in combined.ravel().tolist()] == \
            [v.hex() for v in expected.ravel().tolist()]
        assert np.array_equal(np.signbit(combined), np.signbit(expected))

    @pytest.mark.parametrize("selector", ["magnetic:so3:1,2,3", "passive-scalar"])
    def test_left_out_factor_is_the_running_sum_with_its_signed_zeros(self, selector):
        backend = catalog.resolve_semidirect(selector)
        coeffs = np.array([
            [0.0, -0.0, -1.0],  # np.max meets -0.0 last, yet the running sum is +0
            [-0.0, 0.0, -1.0],
            [-1.0, -0.0, -2.0],  # every sign bit set
            [-1.0, -0.5, -2.0],  # every coefficient negative
            [-0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0],
            [-1.0, 0.5, -2.0],
        ])
        basis = backend.g.sample_basis(1)
        coeffs = np.pad(coeffs, ((0, 0), (0, len(basis) - 3)), mode="edge")  # one c per element
        drawn = sampling._draw(backend, {"g": basis}, "g", coeffs).y

        def cells(element):
            grid = element if isinstance(element, np.ndarray) else element.c
            return [v.hex() for v in np.asarray(grid).view(float).ravel().tolist()]

        for i, row in enumerate(coeffs):
            total = float(row[0]) * backend.h.zero()
            for c in row[1:]:
                total = total + float(c) * backend.h.zero()
            assert cells(drawn[i]) == cells(total), row


class TestGeodesicCommand:
    def test_finite_csv(self, tmp_path, capsys):
        state = tmp_path / "s.cfg"
        state.write_text("[state]\nu = 1 1 1\n")
        assert run([
            "geodesic", "--algebra", "so3:1,2,3", "--state-file", str(state),
            "--dt", "0.001", "--steps", "10",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,u1,u2,u3,energy"
        assert len(lines) == 12

    def test_semidirect_csv_columns(self, tmp_path, capsys):
        state = tmp_path / "s.cfg"
        state.write_text("[state]\nu = 1 0 0\nalpha = 0 1 0\n")
        assert run([
            "geodesic", "--semidirect", "conjugation:so3", "--state-file", str(state),
            "--dt", "0.01", "--steps", "5", "--scheme", "implicit_midpoint",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,u1,u2,u3,alpha1,alpha2,alpha3,energy"

    def test_torus_jsonl(self, tmp_path, capsys):
        state = tmp_path / "s.cfg"
        state.write_text(
            "[state]\nu =\n    sin 0 1 1.0 1\nalpha =\n    cos 1 0 0.5\n"
        )
        assert run([
            "geodesic", "--semidirect", "passive-scalar", "--state-file", str(state),
            "--dt", "0.01", "--steps", "3", "--format", "jsonl", "--support-cap", "8",
        ]) == 0
        captured = capsys.readouterr()
        assert "experimental" in captured.err
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(rows) == 4
        assert rows[0]["energy"] == pytest.approx(rows[-1]["energy"], rel=1e-6)

    @pytest.mark.parametrize("flag, selector, state", [
        ("--algebra", "torus-vol",
         "u =\n    sin 0 1 1.0 1\n    cos 1 1 -0.5 1\n    cos 1 1 0.5 2\n"),
        ("--algebra", "torus-full", "u =\n    sin 0 1 1.0 1\n    cos 1 2 0.5 2\n"),
        ("--semidirect", "passive-scalar", "u =\n    sin 0 1 1.0 1\nalpha =\n    cos 1 2 0.5\n"),
        ("--semidirect", "compressible", "u =\n    cos 1 2 0.5 1\nalpha =\n    cos 1 0 0.5\n"),
        ("--semidirect", "mhd",
         "u =\n    sin 0 1 1.0 1\nalpha =\n    sin 1 -1 0.3 1\n    sin 1 -1 0.3 2\n"),
    ])
    def test_capped_torus_run_forms_no_mode_past_the_cap(self, flag, selector, state, tmp_path,
                                                         monkeypatch, capsys):
        path = tmp_path / "s.cfg"
        path.write_text("[state]\n" + state)
        formed = []
        contract = torus._contract
        monkeypatch.setattr(torus, "_contract",
                            lambda a, b, cap=None: formed.append(cap) or contract(a, b, cap))
        monkeypatch.setattr(torus, "multiply", lambda f, g: pytest.fail("multiply was called"))
        assert run(["geodesic", flag, selector, "--state-file", str(path), "--dt", "0.01",
                    "--steps", "2", "--format", "jsonl", "--support-cap", "3"]) == 0
        assert formed and set(formed) == {3}
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        reach = [max(abs(row[1]), abs(row[2])) for rec in records[1:]
                 for key in ("u", "alpha") for row in rec.get(key, [])]
        assert len(records) == 3 and max(reach) == 3

    def test_torus_csv_rejected(self, tmp_path):
        state = tmp_path / "s.cfg"
        state.write_text("[state]\nu =\n    sin 0 1 1.0 1\n")
        assert run([
            "geodesic", "--algebra", "torus-vol", "--state-file", str(state),
            "--dt", "0.01", "--steps", "2", "--format", "csv",
        ]) == 3

    def test_torus_csv_rejected_before_integrating(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "s.cfg"
        state.write_text("[state]\nu =\n    sin 0 1 1.0 1\n")
        monkeypatch.setattr(cli, "integrate", lambda *args: pytest.fail("integrate was called"))
        assert run([
            "geodesic", "--algebra", "torus-vol", "--state-file", str(state),
            "--dt", "0.01", "--steps", "2",
        ]) == 3
        assert capsys.readouterr().err == (
            "configuration error: CSV trajectories need finite coordinates; "
            "use jsonl for torus runs\n")

    @pytest.mark.parametrize("argv", [
        ["--algebra", "so3:1,2,3", "--state-file", "dense.cfg", "--dt", "10", "--steps", "20"],
        ["--algebra", "torus-vol", "--state-file", "torus.cfg", "--dt", "1e100", "--steps", "1",
         "--support-cap", "2", "--format", "jsonl"],
    ])
    def test_rk4_blow_up_is_numerical_failure(self, argv, tmp_path, capsys):
        files = {
            "dense.cfg": "[state]\nu = 1 1 1\n",
            "torus.cfg": "[state]\nu =\n    sin 0 1 1.0 1\n    cos 1 1 0.5 1\n    cos 1 1 -0.5 2\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert run(["geodesic"] + argv) == 2
        assert "numerical failure: NonFiniteState" in capsys.readouterr().err

    def test_midpoint_divergence_exit_code(self, tmp_path):
        state = tmp_path / "s.cfg"
        state.write_text("[state]\nu = 1 1 1\n")
        assert run([
            "geodesic", "--algebra", "so3:1,2,3", "--state-file", str(state),
            "--dt", "100.0", "--steps", "1", "--scheme", "implicit_midpoint",
        ]) == 2
