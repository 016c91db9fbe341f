#!/usr/bin/env python3
"""Digest of the CLI's output on a fixed set of invocations.

Runs each invocation in its own subprocess, one at a time, with
PYTHONHASHSEED=0 and the ``liecurv`` package from this checkout's ``src/``,
and prints one line per invocation:

    sha256(stdout) sha256(stderr) exit-code argv

The input files are written to a temporary directory that is the
subprocesses' working directory, so argv names them without a path and the
lines do not depend on where that directory is.  Run the script at two
commits and diff the outputs: an empty diff means the change left stdout,
stderr and exit codes byte-identical on this set.  With ``--save DIR``, the
stdout of the invocation on line i (counted from 1) is also written to
``DIR/NNN.out`` (i zero-padded to three digits), so that the outputs behind
lines that moved can be compared number by number.

With ``--compare DIR_A DIR_B``, no invocation is run: the stdouts saved in
two such directories are compared, and each line whose stdout differs is
reported number by number (see ``compare``).

Usage:
    python scripts/cli_digest.py > digest.txt
    python scripts/cli_digest.py --save outputs/ > digest.txt
    python scripts/cli_digest.py --compare parent_outputs/ change_outputs/
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FILES = {
    # divergence-free fields: mode (k1, k2) has components (-k2, k1) * c
    "torus_plane.cfg": (
        "[plane]\n"
        "x_g =\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 1 -0.5 1\n"
        "    cos 1 1 0.5 2\n"
        "    sin 2 -1 0.25 1\n"
        "    sin 2 -1 0.5 2\n"
        "x_h =\n"
        "    cos 1 0 1.0\n"
        "    sin 1 2 -0.75\n"
        "y_g =\n"
        "    cos 1 0 0.8 2\n"
        "    sin 1 -1 0.3 1\n"
        "    sin 1 -1 0.3 2\n"
        "y_h =\n"
        "    cos 0 0 0.5\n"
        "    sin 0 2 1.25\n"
        "    cos 2 1 -0.4\n"
    ),
    "torus_state.cfg": (
        "[state]\n"
        "u =\n"
        "    cos 0 0 0.2 1\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 0 0.7 2\n"
        "    cos 1 1 -0.5 1\n"
        "    cos 1 1 0.5 2\n"
        "    sin 1 -2 0.6 1\n"
        "    sin 1 -2 0.3 2\n"
        "    cos 2 1 -0.2 1\n"
        "    cos 2 1 0.4 2\n"
    ),
    # u alone is read by a plain algebra, u and alpha by a semidirect product
    "dense_state.cfg": (
        "[state]\n"
        "u = 0.3 -0.7 0.45\n"
        "alpha = 0.2 0.5 -0.35\n"
    ),
    "dense_u_state.cfg": (
        "[state]\n"
        "u = 0.3 -0.7 0.45\n"
    ),
    # so(3) with a non-diagonal Gram matrix, positive definite and not
    "so3_spd.cfg": (
        "[algebra]\n"
        "dim = 3\n"
        "gram = rows: 2.0 0.5 0.1; 0.5 1.5 -0.3; 0.1 -0.3 1.0\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    1 3 2 -1\n"
    ),
    "so3_indefinite.cfg": (
        "[algebra]\n"
        "dim = 3\n"
        "gram = rows: 1.0 2.0 0.0; 2.0 1.0 0.0; 0.0 0.0 1.0\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    1 3 2 -1\n"
    ),
    # the torus states of the semidirect products: u with a function or field alpha
    "torus_scalar_state.cfg": (
        "[state]\n"
        "u =\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 1 -0.5 1\n"
        "    cos 1 1 0.5 2\n"
        "    sin 1 -2 0.6 1\n"
        "    sin 1 -2 0.3 2\n"
        "alpha =\n"
        "    cos 0 0 0.5\n"
        "    cos 1 0 1.0\n"
        "    sin 1 2 -0.75\n"
    ),
    "torus_mhd_state.cfg": (
        "[state]\n"
        "u =\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 1 -0.5 1\n"
        "    cos 1 1 0.5 2\n"
        "alpha =\n"
        "    cos 0 0 0.3 2\n"
        "    cos 1 0 0.8 2\n"
        "    sin 1 -1 0.3 1\n"
        "    sin 1 -1 0.3 2\n"
    ),
    "dense_plane.cfg": (
        "[plane]\n"
        "x = 1.0 0.5 -0.25\n"
        "y = -0.3 1.2 0.8\n"
    ),
    "dense_sd_plane.cfg": (
        "[plane]\n"
        "x_g = 1.0 0.5 -0.25\n"
        "x_h = 0.2 -0.4 0.6\n"
        "y_g = -0.3 1.2 0.8\n"
        "y_h = 0.7 0.1 -0.5\n"
    ),
    # divergence-free fields reaching |k|_inf = 32, the torus wavenumber bound, and 33
    **{f"torus_k{kmax}_plane.cfg": (
        "[plane]\n"
        "x =\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 1 -0.5 1\n"
        "    cos 1 1 0.5 2\n"
        f"    cos {kmax} 0 0.5 2\n"
        "y =\n"
        "    cos 1 0 0.8 2\n"
        "    sin 1 32 -8.0 1\n"
        "    sin 1 32 0.25 2\n"
        "    sin 32 -32 0.25 1\n"
        "    sin 32 -32 0.25 2\n"
    ) for kmax in (32, 33)},
    # so(3) acting on R^3 by the cross product, with a diagonal Gram on g
    "euclidean_sd.cfg": (
        "[g]\n"
        "dim = 3\n"
        "gram = diag: 1, 2, 3\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    3 1 2 1\n"
        "[h]\n"
        "dim = 3\n"
        "[action]\n"
        "entries =\n"
        "    1 3 2 1\n"
        "    1 2 3 -1\n"
        "    2 1 3 1\n"
        "    2 3 1 -1\n"
        "    3 2 1 1\n"
        "    3 1 2 -1\n"
    ),
    # failing inputs: y = 2x spans no plane; the mode (1, 0) along e1 has divergence
    "dense_degenerate_plane.cfg": (
        "[plane]\n"
        "x = 1.0 0.5 -0.25\n"
        "y = 2.0 1.0 -0.5\n"
    ),
    "torus_divergent_plane.cfg": (
        "[plane]\n"
        "x =\n"
        "    cos 1 0 1.0 1\n"
        "y =\n"
        "    cos 1 0 0.8 2\n"
    ),
    # a state whose products overflow, so multiply meets non-finite operands
    "torus_overflow_state.cfg": (
        "[state]\n"
        "u =\n"
        "    cos 0 1 1e150 1\n"
        "    sin 1 1 1e150 2\n"
    ),
    # two modes per field, one of them at the bound: sparse operands, exact sums
    "torus_sparse_bound_plane.cfg": (
        "[plane]\n"
        "x =\n"
        "    sin 0 32 -32.0 1\n"
        "    cos 1 0 1.0 2\n"
        "y =\n"
        "    cos 32 0 32.0 2\n"
        "    sin 0 1 -1.0 1\n"
    ),
    # so(3) with [e1, e2] = e3 + 1e-11 e1: a Jacobi residual of 1e-11
    "so3_jacobi_1e-11.cfg": (
        "[algebra]\n"
        "dim = 3\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    3 1 2 1\n"
        "    1 2 1 1e-11\n"
    ),
    # a Gram matrix that is not symmetric, with -1 on its diagonal
    "so3_asymmetric.cfg": (
        "[algebra]\n"
        "dim = 3\n"
        "gram = rows: 1 2 0; 0 1 0; 0 0 -1\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    3 1 2 1\n"
    ),
    # so(3) with a Jacobi residual of 1e-9 and a Gram matrix asymmetric by 1e-11
    "so3_jacobi_1e-9_asymmetric.cfg": (
        "[algebra]\n"
        "dim = 3\n"
        "gram = rows: 1 1e-11 0; 0 1 0; 0 0 1\n"
        "structure =\n"
        "    1 2 3 1\n"
        "    2 3 1 1\n"
        "    3 1 2 1\n"
        "    1 2 1 1e-9\n"
    ),
    # a field whose first component reaches |k|_inf = 3 and whose second stops at 1
    "torus_unequal_state.cfg": (
        "[state]\n"
        "u =\n"
        "    cos 0 0 0.2 1\n"
        "    sin 0 1 -1.0 1\n"
        "    cos 1 2 0.5 1\n"
        "    sin 3 -1 0.25 1\n"
        "    cos 1 0 0.7 2\n"
        "    sin 1 -1 0.3 2\n"
    ),
}

# so(3) with [e1, e2] = 1e200 e3: it satisfies the Jacobi identity, but the check's scale overflows
FILES["so3_1e200.cfg"] = (
    "[algebra]\n"
    "dim = 3\n"
    "structure =\n"
    "    1 2 3 1e200\n"
    "    2 3 1 1\n"
    "    3 1 2 1\n"
)
# an exactly antisymmetric algebra that fails the Jacobi identity, with its worst residual
# first found at (i, j, k) = (1, 0, 2), where j < i
FILES["jacobi_fails_j_below_i.cfg"] = (
    "[algebra]\n"
    "dim = 3\n"
    "structure =\n"
    "    1 2 2 0.6\n"
    "    1 2 3 0.3\n"
    "    1 3 3 0.7\n"
    "    2 3 2 -0.1\n"
)
# the action of euclidean_sd.cfg with one entry off by 1e-11: a homomorphism residual of 1e-11
FILES["euclidean_sd_1e-11.cfg"] = FILES["euclidean_sd.cfg"].replace(
    "    1 3 2 1\n", "    1 3 2 1.00000000001\n")
# the same entry at 1e200: finite, but the homomorphism check's scale overflows
FILES["euclidean_sd_1e200.cfg"] = FILES["euclidean_sd.cfg"].replace(
    "    1 3 2 1\n", "    1 3 2 1e200\n")
# configuration errors: a Gram matrix of the wrong size, given as a diagonal and as rows,
# a diagonal structure entry, an action entry past dim g, and a plain state without u
for name, line in (("so3_short_diag.cfg", "gram = diag: 1, 2\n"),
                   ("so3_short_rows.cfg", "gram = rows: 1 0; 0 1\n"),
                   ("so3_diagonal_entry.cfg", "structure =\n    1 1 2 1.0\n")):
    FILES[name] = "[algebra]\ndim = 3\n" + line
FILES["euclidean_sd_g4.cfg"] = FILES["euclidean_sd.cfg"].replace(
    "    3 1 2 -1\n", "    4 1 2 -1\n")
# failing actions on sparse constants: euclidean_sd.cfg with a diagonal action entry, which
# breaks the homomorphism property, and so(3) acting on itself by ad with one, which breaks
# the derivation property too
FILES["euclidean_sd_diagonal.cfg"] = FILES["euclidean_sd.cfg"] + "    2 2 2 0.5\n"
FILES["so3_ad_diagonal.cfg"] = FILES["euclidean_sd.cfg"].replace(
    "[h]\ndim = 3\n", "[h]\ndim = 3\nstructure =\n    1 2 3 1\n    2 3 1 1\n    3 1 2 1\n"
) + "    3 3 3 0.25\n"
FILES["empty_state.cfg"] = "[state]\n"

_SCANS = [
    ["--semidirect", "mhd", "--seed", "1", "--band", "2", "--count", "3"],
    ["--semidirect", "passive-scalar", "--seed", "3", "--family", "contains-h", "--count", "5"],
    ["--semidirect", "magnetic:random-solvable:8:1", "--seed", "1", "--count", "20"],
]

_TORUS_GEODESIC = ["geodesic", "--algebra", "torus-vol", "--state-file", "torus_state.cfg",
                   "--dt", "0.01", "--steps", "2", "--support-cap", "6", "--format", "jsonl"]

_DENSE_GEODESIC = ["geodesic", "--state-file", "dense_state.cfg", "--dt", "0.01", "--steps", "200"]

_TORUS_SD_GEODESIC = ["geodesic", "--dt", "0.01", "--steps", "2", "--support-cap", "5",
                      "--format", "jsonl"]

#: CLI argument lists, run as ``python -m liecurv.cli ARGS``.
CLI_INVOCATIONS = [
    ["validate", "--algebra", "so3"],
    ["validate", "--semidirect", "magnetic:so3:1,2,3"],
    ["validate", "--algebra", "torus-vol"],
    ["validate", "--semidirect", "mhd"],
    ["validate", "--semidirect", "passive-scalar"],
    ["curvature", "--semidirect", "passive-scalar", "--plane-file", "torus_plane.cfg"],
    *(["scan", *scan, "--format", fmt] for scan in _SCANS for fmt in ("csv", "jsonl")),
    _TORUS_GEODESIC + ["--scheme", "rk4"],
    _TORUS_GEODESIC + ["--scheme", "implicit_midpoint"],
    *(_DENSE_GEODESIC + ["--semidirect", "magnetic:so3:1,2,3", "--scheme", scheme, "--format", "csv"]
      for scheme in ("rk4", "implicit_midpoint")),
    ["geodesic", "--state-file", "dense_u_state.cfg", "--dt", "0.01", "--steps", "200",
     "--algebra", "so3:1,2,3", "--scheme", "rk4", "--format", "jsonl"],
    ["geodesic", "--state-file", "dense_u_state.cfg", "--dt", "0.01", "--steps", "200",
     "--algebra", "so3:1,2,3", "--scheme", "implicit_midpoint", "--format", "csv"],
    # a large step: every midpoint step takes 9 to 14 fixed-point passes, and converges
    ["geodesic", "--semidirect", "magnetic:so3:1,2,3", "--state-file", "dense_state.cfg",
     "--dt", "0.3", "--steps", "100", "--scheme", "implicit_midpoint", "--format", "csv"],
    ["validate", "--algebra-file", "so3_spd.cfg"],
    ["validate", "--algebra-file", "so3_indefinite.cfg"],
    ["geodesic", "--state-file", "dense_u_state.cfg", "--dt", "0.01", "--steps", "200",
     "--algebra-file", "so3_spd.cfg", "--scheme", "rk4", "--format", "csv"],
    *(_TORUS_SD_GEODESIC + ["--semidirect", name, "--state-file", state, "--scheme", "rk4"]
      for name, state in (("passive-scalar", "torus_scalar_state.cfg"),
                          ("compressible", "torus_scalar_state.cfg"),
                          ("mhd", "torus_mhd_state.cfg"))),
    _TORUS_SD_GEODESIC + ["--semidirect", "mhd", "--state-file", "torus_mhd_state.cfg",
                          "--scheme", "implicit_midpoint"],
    *(_DENSE_GEODESIC + ["--semidirect", name, "--scheme", "rk4", "--format", "csv"]
      for name in ("euclidean", "linear_so3_on_r3")),
    *(["validate", "--semidirect", name]
      for name in ("euclidean", "linear_so3_on_r3", "linear-so3-on-r3", "conjugation:so3:1,2,3",
                   "magnetic:random-solvable:6:2", "compressible")),
    ["validate", "--algebra", "torus-full"],
    ["validate", "--semidirect-file", "euclidean_sd.cfg"],
    ["curvature", "--algebra", "so3:1,2,3", "--plane-file", "dense_plane.cfg"],
    ["curvature", "--semidirect", "magnetic:so3:1,2,3", "--plane-file", "dense_sd_plane.cfg",
     "--format", "jsonl"],
    ["scan", "--semidirect", "euclidean", "--family", "hh", "--seed", "2", "--count", "10"],
    ["scan", "--semidirect", "conjugation:so3:1,2,3", "--family", "gh", "--seed", "2",
     "--count", "10"],
    ["scan", "--semidirect", "compressible", "--family", "gh", "--band", "1", "--seed", "2",
     "--count", "2"],
    ["scan", "--algebra", "torus-full", "--band", "1", "--seed", "2", "--count", "3"],
    # larger torus grids, up to the wavenumber bound and one past it
    ["scan", "--algebra", "torus-vol", "--band", "8", "--seed", "1", "--count", "2"],
    *(["curvature", "--algebra", "torus-vol", "--plane-file", f"torus_k{kmax}_plane.cfg"]
      for kmax in (32, 33)),
    ["geodesic", "--algebra", "torus-vol", "--state-file", "torus_state.cfg", "--dt", "0.01",
     "--steps", "1", "--support-cap", "32", "--format", "jsonl"],
    # one failure per exit code of the CLI: 1 twice, 2 twice, 3
    ["curvature", "--algebra", "so3", "--plane-file", "dense_degenerate_plane.cfg"],
    ["curvature", "--algebra", "torus-vol", "--plane-file", "torus_divergent_plane.cfg"],
    *(["geodesic", "--semidirect", "magnetic:so3:1,2,3", "--state-file", "dense_state.cfg",
       "--scheme", scheme, "--dt", dt, "--steps", steps]
      for scheme, dt, steps in (("implicit_midpoint", "50", "1"), ("rk4", "1e300", "2"))),
    ["validate", "--algebra", "random-solvable:1:3"],
    # exit 2 after products of non-finite grids
    ["geodesic", "--algebra", "torus-full", "--state-file", "torus_overflow_state.cfg",
     "--dt", "1e10", "--steps", "3", "--format", "jsonl"],
    ["curvature", "--algebra", "torus-vol", "--plane-file", "torus_sparse_bound_plane.cfg"],
    # exit 3: a torus run in the default CSV format
    ["geodesic", "--algebra", "torus-vol", "--state-file", "torus_state.cfg", "--dt", "0.01",
     "--steps", "2"],
    # validate --tol: residuals of 1e-11 pass at the default tolerance and fail at 1e-12
    ["validate", "--algebra-file", "so3_jacobi_1e-11.cfg"],
    ["validate", "--algebra-file", "so3_jacobi_1e-11.cfg", "--tol", "1e-12"],
    ["validate", "--semidirect-file", "euclidean_sd_1e-11.cfg", "--tol", "1e-12"],
    ["validate", "--algebra", "torus-vol", "--tol", "0"],
    ["validate", "--semidirect", "mhd", "--tol", "0"],
    ["validate", "--algebra-file", "so3_asymmetric.cfg"],
    # a refused spec judged at --tol: its Gram asymmetry of 1e-11 fails at 1e-12
    ["validate", "--algebra-file", "so3_jacobi_1e-9_asymmetric.cfg", "--tol", "1e-12"],
    # a support cap between the widths of the two components
    ["geodesic", "--algebra", "torus-full", "--state-file", "torus_unequal_state.cfg",
     "--dt", "0.01", "--steps", "2", "--support-cap", "2", "--format", "jsonl"],
    # an empty scan: the header and a summary with nan extremes
    *(["scan", "--algebra", "so3", "--seed", "1", "--count", "0", "--format", fmt]
      for fmt in ("csv", "jsonl")),
    ["curvature", "--algebra", "torus-vol", "--plane-file", "torus_k32_plane.cfg",
     "--format", "jsonl"],
    # a negative seed
    ["scan", "--algebra", "so3", "--seed", "-1", "--count", "1"],
    # torus scans of many planes, one family with legs in different factors, and
    # contains-h, whose legs have unequal widths
    ["scan", "--semidirect", "mhd", "--band", "2", "--seed", "1", "--count", "30"],
    ["scan", "--semidirect", "mhd", "--family", "gh", "--seed", "2", "--count", "4"],
    ["scan", "--semidirect", "compressible", "--family", "contains-h", "--band", "1",
     "--seed", "2", "--count", "3"],
    # a finite action entry of 1e200, and every residual of a product with an abelian h
    ["validate", "--semidirect-file", "euclidean_sd_1e200.cfg"],
    ["validate", "--semidirect-file", "euclidean_sd.cfg", "--tol", "0"],
    # a structure constant of 1e200, a compiled right-hand side where g is h, and a torus
    # scan whose legs share one sampling basis
    ["validate", "--algebra-file", "so3_1e200.cfg"],
    _DENSE_GEODESIC + ["--semidirect", "conjugation:so3:1,2,3", "--scheme", "rk4", "--format", "csv"],
    ["scan", "--semidirect", "mhd", "--family", "hh", "--band", "1", "--seed", "2", "--count", "3"],
    # the benchmark's dense scan, and a dense contains-h scan that rejects a draw
    ["scan", "--semidirect", "magnetic:random-solvable:32:1", "--seed", "1", "--count", "100"],
    ["scan", "--semidirect", "magnetic:random-solvable:2:1", "--family", "contains-h", "--seed", "1",
     "--count", "100"],
    # the Jacobi check of a 64-dimensional assembled product, and a Jacobi failure at j < i
    ["validate", "--semidirect", "magnetic:random-solvable:32:1"],
    ["validate", "--algebra-file", "jacobi_fails_j_below_i.cfg"],
    # exit 3, each naming its cause
    *(["validate", "--algebra-file", name]
      for name in ("so3_short_diag.cfg", "so3_short_rows.cfg", "so3_diagonal_entry.cfg")),
    ["validate", "--semidirect-file", "euclidean_sd_g4.cfg"],
    ["geodesic", "--algebra", "so3", "--state-file", "empty_state.cfg", "--dt", "0.1",
     "--steps", "1"],
    ["validate", "--algebra", "so3:1,x,3"],
    *(["validate", "--semidirect", name] for name in ("euclidean:1", "linear-so3-on-r3:2")),
    # derivation and homomorphism failures located on sparse actions, and a derivation check
    # on a sparse non-abelian h that passes
    *(["validate", "--semidirect-file", name]
      for name in ("euclidean_sd_diagonal.cfg", "so3_ad_diagonal.cfg")),
    ["validate", "--semidirect", "conjugation:random-solvable:8:1"],
    # derivation rows formed on a 32-dimensional non-abelian h
    ["validate", "--semidirect", "conjugation:random-solvable:32:1"],
    # gg scans, whose legs leave out the h factor: dense and torus
    ["scan", "--semidirect", "magnetic:so3:1,2,3", "--family", "gg", "--seed", "2", "--count", "5"],
    ["scan", "--semidirect", "passive-scalar", "--family", "gg", "--band", "1", "--seed", "2",
     "--count", "3"],
    # stacked dense scans: the five-term numerator, and the expansion over a non-abelian h
    ["scan", "--algebra", "random-solvable:16:2", "--seed", "1", "--count", "20"],
    ["scan", "--semidirect", "conjugation:random-solvable:8:1", "--seed", "1", "--count", "20"],
    # torus geodesics at the default --support-cap of 16, whose products reach past it
    ["geodesic", "--algebra", "torus-vol", "--state-file", "torus_state.cfg", "--dt", "0.01",
     "--steps", "3", "--scheme", "rk4", "--format", "jsonl"],
    ["geodesic", "--semidirect", "mhd", "--state-file", "torus_mhd_state.cfg", "--dt", "0.01",
     "--steps", "2", "--scheme", "rk4", "--format", "jsonl"],
]

#: Scripts under ``scripts/`` with their arguments.
SCRIPT_INVOCATIONS = [
    ["scripts/stability_scan.py", "--count", "5", "--band", "1"],
    ["scripts/kirchhoff_demo.py", "--steps", "200"],
    # a step so large that the integration blows up
    ["scripts/kirchhoff_demo.py", "--dt", "50", "--steps", "2"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _number(value):
    """value as a float when it is a number (not a bool), else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _json_cells(value, path=()):
    """{key: value} of the cells of a parsed JSONL record.  A mode row, a list
    whose first entry is a parity name, ``[parity, k1, k2, coefficient, ...]``,
    is one cell keyed by the row without its coefficient, so that modes match
    by wavevector and component; any other list is keyed by position."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in _json_cells(item, path + (key,)).items()}
    if isinstance(value, list):
        cells = {}
        for i, item in enumerate(value):
            if isinstance(item, list) and item and isinstance(item[0], str) and len(item) >= 4:
                cells[path + (tuple(item[:3]) + tuple(item[4:]),)] = item[3]
            else:
                cells.update(_json_cells(item, path + (i,)))
        return cells
    return {path: value}


def _csv_cells(row: str) -> dict:
    cells = {}
    for i, text in enumerate(row.split(",")):
        try:
            cells[(i,)] = float(text)
        except ValueError:
            cells[(i,)] = text
    return cells


def _records(text: str) -> list:
    """The cells of each record of an output: one JSONL line or CSV row each."""
    out = []
    for line in text.splitlines():
        try:
            out.append(_json_cells(json.loads(line)))
        except ValueError:
            out.append(_csv_cells(line))
    return out


def compare(text_a: str, text_b: str) -> dict:
    """Number-by-number comparison of two outputs of one invocation.

    Records pair up in order, and their cells by key.  A mode printed on one
    side only counts as 0.0 on the other; a record on one side only has every
    cell there.  A cell moves when its bits differ.  A record's scale is the
    largest finite |value| among its numeric cells on either side, and a cell
    counts as above it when max(|a|, |b|) > 1e-12 of it.  Returns the counts
    of numeric cells, moved cells and other cells (text) that changed, the
    largest relative change |b - a| / max(|a|, |b|) of a cell above its
    record's scale, the largest |b - a| over the record's scale, the sign
    changes among cells above it, and the modes printed on one side only.
    """
    records_a, records_b = _records(text_a), _records(text_b)
    result = {"numeric": 0, "moved": 0, "text": 0, "relative": 0.0, "of_record": 0.0,
              "signs": 0, "one_side": 0}
    for i in range(max(len(records_a), len(records_b))):
        a = records_a[i] if i < len(records_a) else {}
        b = records_b[i] if i < len(records_b) else {}
        pairs = []
        for key in dict.fromkeys([*a, *b]):
            x, y = _number(a.get(key, 0.0)), _number(b.get(key, 0.0))
            if x is None or y is None:
                result["text"] += a.get(key) != b.get(key)
                continue
            result["one_side"] += (key in a) != (key in b) and isinstance(key[-1], tuple)
            pairs.append((x, y))
        finite = [abs(v) for pair in pairs for v in pair if math.isfinite(v)]
        scale = max(finite, default=0.0)
        result["numeric"] += len(pairs)
        for x, y in pairs:
            if x.hex() == y.hex():
                continue
            result["moved"] += 1
            size = max(abs(x), abs(y))
            change = abs(y - x)
            if scale > 0.0 and size > 1e-12 * scale:
                result["relative"] = max(result["relative"], change / size)
                result["signs"] += (x > 0.0) != (y > 0.0) or (x < 0.0) != (y < 0.0)
            if scale > 0.0:
                result["of_record"] = max(result["of_record"], change / scale)
    return result


def _report(dir_a: Path, dir_b: Path) -> int:
    """Print one line per saved stdout that differs between the two directories."""
    shown = [" ".join(argv) for argv in CLI_INVOCATIONS + SCRIPT_INVOCATIONS]
    names = sorted({p.name for p in dir_a.glob("*.out")} | {p.name for p in dir_b.glob("*.out")})
    moved = 0
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        text_a = path_a.read_text() if path_a.exists() else ""
        text_b = path_b.read_text() if path_b.exists() else ""
        if text_a == text_b:
            continue
        moved += 1
        r = compare(text_a, text_b)
        line = int(name.split(".")[0])
        argv = shown[line - 1] if line <= len(shown) else "?"
        print(f"{line:03d} {argv}: {r['moved']}/{r['numeric']} numeric cells moved; "
              f"largest relative change above 1e-12 of the record {r['relative']:.1e}; "
              f"largest change relative to the record {r['of_record']:.1e}; "
              f"sign changes {r['signs']}; modes on one side only {r['one_side']}; "
              f"text cells changed {r['text']}")
    print(f"{moved} of {len(names)} outputs differ")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Digest of the CLI's output on a fixed set of invocations.")
    parser.add_argument("--save", metavar="DIR", type=Path,
                        help="also write each invocation's stdout to DIR/NNN.out")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), type=Path,
                        help="compare the stdouts that --save wrote to two directories; run nothing")
    args = parser.parse_args()
    if args.compare:
        return _report(*args.compare)
    save = args.save
    if save is not None:
        save.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = [(["-m", "liecurv.cli", *argv], argv) for argv in CLI_INVOCATIONS]
    runs += [([str(ROOT / argv[0]), *argv[1:]], argv) for argv in SCRIPT_INVOCATIONS]
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as work:
        for name, text in FILES.items():
            Path(work, name).write_text(text)
        for line, (args, shown) in enumerate(runs, 1):
            proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                                  capture_output=True, check=False)
            if save is not None:
                (save / f"{line:03d}.out").write_bytes(proc.stdout)
            print(_sha256(proc.stdout), _sha256(proc.stderr), proc.returncode, " ".join(shown),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
