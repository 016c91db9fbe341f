"""Command-line interface: validate, curvature, scan, geodesic.

Exit codes: 0 success, 1 validation failure (including degenerate planes and
divergence violations), 2 numerical failure, 3 configuration error.  All
outputs are deterministic for identical invocations; random sampling is
seeded PCG64 with no global state.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog, configio, torus
from .algebra import JACOBI_TOL, Check, DenseBackend, ValidationReport, validate
from .backend import SemidirectBackendBase, stack
from .curvature import (
    Plane,
    curvature_numerator_generic,
    curvature_numerator_semidirect,
    plane_denominator,
)
from .errors import (
    ConfigError,
    LiecurvError,
    MidpointDivergence,
    NonFiniteState,
    SamplingExhausted,
    ValidationFailure,
)
from .geodesic import IntegratorConfig, geodesic_rhs, integrate
from .sampling import FAMILIES, check_family, sample_planes
from .semidirect import SemidirectAlgebra, finite_dimensional


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to the config code
        raise ConfigError(message)


def checked(convert, accept, requirement: str):
    """Argument type: ``convert`` the text, then reject values failing ``accept``."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


# the scripts under scripts/ parse their seeds, counts and bands with these too
NON_NEGATIVE_INT = checked(int, lambda v: v >= 0, "non-negative")
WAVENUMBER = checked(int, lambda v: 0 <= v <= torus.MAX_WAVENUMBER,
                     f"between 0 and the limit of {torus.MAX_WAVENUMBER}")
_FINITE = checked(float, math.isfinite, "finite")
_TOLERANCE = checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
# resolving a backend refuses it when a check fails at JACOBI_TOL, so --tol can only tighten
_VALIDATE_TOL = checked(float, lambda v: 0 <= v <= JACOBI_TOL, f"between 0 and {JACOBI_TOL}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liecurv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="task", required=True, parser_class=_Parser)

    def backend_flags(sp):
        sp.add_argument("--algebra", help="builtin algebra selector, e.g. so3 or so3:1,2,3")
        sp.add_argument("--algebra-file", help="inline algebra spec file")
        sp.add_argument("--semidirect", help="builtin semidirect selector, e.g. conjugation:so3")
        sp.add_argument("--semidirect-file", help="inline semidirect spec file")

    def output_flags(sp):
        sp.add_argument("--output", help="write results to this file instead of stdout")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    sp = sub.add_parser("validate", help="validate an algebra or semidirect spec")
    backend_flags(sp)
    sp.add_argument("--tol", type=_VALIDATE_TOL, default=JACOBI_TOL,
                    help=f"validation tolerance, at most {JACOBI_TOL}")

    sp = sub.add_parser("curvature", help="evaluate the curvature of one plane")
    backend_flags(sp)
    sp.add_argument("--plane-file", required=True)
    sp.add_argument("--zero-tol", type=_TOLERANCE, default=1e-12)
    output_flags(sp)

    sp = sub.add_parser("scan", help="sectional-curvature sign statistics over random planes")
    backend_flags(sp)
    sp.add_argument("--seed", type=NON_NEGATIVE_INT, required=True)
    sp.add_argument("--count", type=NON_NEGATIVE_INT, required=True)
    sp.add_argument("--family", choices=FAMILIES, default="full")
    sp.add_argument("--band", type=WAVENUMBER, default=2, help="torus sampling band |k|_inf")
    sp.add_argument("--zero-tol", type=_TOLERANCE, default=1e-12)
    output_flags(sp)

    sp = sub.add_parser("geodesic", help="integrate the geodesic equation")
    backend_flags(sp)
    sp.add_argument("--state-file", required=True)
    sp.add_argument("--dt", type=_FINITE, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--scheme", choices=("rk4", "implicit_midpoint"), default="rk4")
    sp.add_argument("--support-cap", type=WAVENUMBER, default=16,
                    help="torus runs: drop modes with |k|_inf above this (experimental)")
    output_flags(sp)
    return parser


def _resolve_backend(args):
    chosen = [
        name for name in ("algebra", "algebra_file", "semidirect", "semidirect_file")
        if getattr(args, name, None)
    ]
    if len(chosen) != 1:
        raise ConfigError("choose exactly one of --algebra/--algebra-file/--semidirect/--semidirect-file")
    kind = chosen[0]
    if kind == "algebra":
        return catalog.resolve_algebra(args.algebra)
    if kind == "algebra_file":
        return DenseBackend(configio.load_algebra_file(args.algebra_file))
    if kind == "semidirect":
        return catalog.resolve_semidirect(args.semidirect)
    return configio.load_semidirect_file(args.semidirect_file)


def _emit(lines, args):
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _worst_residual(lhs, rhs) -> float:
    """Largest |lhs - rhs| / max(1, |lhs|, |rhs|) over a stack of values; a nan stays nan."""
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))))


def _band1_stack(backend):
    basis = backend.sample_basis(1)
    return basis.combine(np.eye(len(basis)))


def _adjointness_residual(backend) -> float:
    """Worst residual of <[x, z], y> = <z, ad(x)^T y> over all triples of band-1 modes."""
    modes = _band1_stack(backend)
    x, z, y = modes[:, None, None], modes[None, :, None], modes[None, None, :]
    return _worst_residual(backend.inner(backend.bracket(x, z), y),
                           backend.inner(z, backend.ad_transpose(x, y)))


def _torus_spot_report(backend) -> ValidationReport:
    """Adjointness and h-relation spot checks over all triples of band-1 modes."""
    if isinstance(backend, SemidirectBackendBase):
        x, hmodes = _band1_stack(backend.g)[:, None, None], _band1_stack(backend.h)
        y1, y2 = hmodes[None, :, None], hmodes[None, None, :]
        lhs = backend.h.inner(backend.b(x, y1), y2)
        residuals = {
            "g_adjointness": _adjointness_residual(backend.g),
            "h_defining_relation": _worst_residual(lhs, backend.g.inner(backend.h_map(y1, y2), x)),
            "b_adjointness": _worst_residual(lhs, backend.h.inner(y1, backend.b_transpose(x, y2))),
        }
    else:
        residuals = {"adjointness": _adjointness_residual(backend)}
    return ValidationReport(backend.name, [Check(name, (), worst) for name, worst in residuals.items()])


def _run_validate(args) -> int:
    try:
        backend = _resolve_backend(args)
    except ValidationFailure as exc:
        print(exc.report.at(args.tol))
        return 1
    if not finite_dimensional(backend):
        reports = [_torus_spot_report(backend)]
    elif isinstance(backend, SemidirectAlgebra):
        # factors and action were checked while resolving; an oversized product is refused here
        reports = [backend.g.report, backend.h.report, backend.report, validate(backend.product_spec)]
    else:
        reports = [backend.report]
    reports = [report.at(args.tol) for report in reports]
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 1


def _as_config_error(fn, *args, **kwargs):
    """Call ``fn``, which checks command-line values; its ValueError is a configuration error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _breakdown_for(backend, plane: Plane):
    if isinstance(backend, SemidirectBackendBase):
        return curvature_numerator_semidirect(backend, plane.x, plane.y)
    return curvature_numerator_generic(backend, plane.x, plane.y)


def _run_curvature(args) -> int:
    backend = _resolve_backend(args)
    plane = configio.load_plane_file(args.plane_file, backend)
    plane_denominator(backend, plane.x, plane.y)  # raises DegeneratePlane before any evaluation
    write = configio.breakdown_csv_lines if args.format == "csv" else configio.breakdown_jsonl_lines
    _emit(write(_breakdown_for(backend, plane), args.zero_tol), args)
    return 0


def _run_scan(args) -> int:
    backend = _resolve_backend(args)
    _as_config_error(check_family, backend, args.family)
    planes = sample_planes(backend, args.seed, args.count, family=args.family, band=args.band)
    values = []
    if planes:  # one evaluation over the stacked planes
        br = _breakdown_for(backend, Plane(stack([p.x for p in planes]), stack([p.y for p in planes])))
        values = zip(br.numerator.tolist(), br.denominator.tolist(), br.sectional.tolist())
    write = configio.scan_csv_lines if args.format == "csv" else configio.scan_jsonl_lines
    _emit(write(values, args.zero_tol), args)
    return 0


def _run_geodesic(args) -> int:
    backend = _resolve_backend(args)
    state = configio.load_state_file(args.state_file, backend)
    if finite_dimensional(backend):
        rhs = geodesic_rhs(backend)
    else:
        if args.format == "csv":  # refused before the run, not after it
            raise ConfigError("CSV trajectories need finite coordinates; use jsonl for torus runs")
        # a copy of the backend whose products form only the modes the cap keeps
        capped = type(backend)(cap=args.support_cap)
        rhs = torus.capped_rhs(geodesic_rhs(capped), args.support_cap)
        print(
            f"note: torus run truncated at |k|_inf <= {args.support_cap}; "
            "experimental, not the exact geodesic flow",
            file=sys.stderr,
        )
    config = _as_config_error(IntegratorConfig, dt=args.dt, steps=args.steps, scheme=args.scheme)
    traj = integrate(rhs, state, config, backend)
    write = configio.trajectory_csv_lines if args.format == "csv" else configio.trajectory_jsonl_lines
    _emit(write(traj), args)
    return 0


_TASKS = {
    "validate": _run_validate,
    "curvature": _run_curvature,
    "scan": _run_scan,
    "geodesic": _run_geodesic,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _TASKS[args.task](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (MidpointDivergence, NonFiniteState, SamplingExhausted, ValueError) as exc:
        # bad input is a ConfigError by now; a ValueError is the arithmetic's
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LiecurvError as exc:  # every other failed check
        print(f"validation failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
