"""Output checks run after the timed rounds.

Each check takes the text one CLI invocation wrote and returns how many of
its operations (planes or steps) failed: raised, came out non-finite, went
missing, or disagree with an independent route.  A result that cannot be
parsed fails every operation.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Cross-route tolerance of acceptance criteria 1 and 2.
ROUTE_RELERR = 1e-9
#: Energy drift bound of acceptance criterion 7 for the implicit midpoint scheme.
MIDPOINT_DRIFT = 1e-10
#: Energy drift bound of acceptance criterion 7 for RK4.
RK4_DRIFT = 1e-8
#: Tolerance between an emitted value and the same quantity recomputed from
#: the emitted numbers (both sides are shortest round-trip floats).
ROUNDOFF = 1e-12
#: Zero band of the CLI's sign column (``--zero-tol`` default).
ZERO_TOL = 1e-12


def relerr(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def sign_of(k: float) -> str:
    if not abs(k) > ZERO_TOL:
        return "0"
    return "+" if k > 0 else "-"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def reference_numerators(workload):
    """Independent numerators for the planes the scan drew, one list per route."""
    from liecurv import catalog
    from liecurv.curvature import curvature_numerator_generic, oracle_curvature
    from liecurv.sampling import sample_planes

    backend = catalog.resolve_semidirect(workload.selector[1])
    p = workload.params
    planes = sample_planes(backend, p["seed"], p["count"], family=p["family"], band=p["band"])
    if workload.name == "scan-dense":
        # the five-term formula and the connection oracle on the assembled product
        prod = backend.product
        joined = [(backend.join(pl.x), backend.join(pl.y)) for pl in planes]
        five = [curvature_numerator_generic(prod, x, y).numerator for x, y in joined]
        oracle = [oracle_curvature(prod, x, y) for x, y in joined]
        gram = [prod.inner(x, x) * prod.inner(y, y) - prod.inner(x, y) ** 2 for x, y in joined]
        return [five, oracle], gram
    # torus backends: the five-term formula over Pair elements
    five = [curvature_numerator_generic(backend, pl.x, pl.y).numerator for pl in planes]
    gram = [backend.inner(pl.x, pl.x) * backend.inner(pl.y, pl.y)
            - backend.inner(pl.x, pl.y) ** 2 for pl in planes]
    return [five], gram


def parse_scan_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "plane_id,numerator,denominator,sectional,sign":
        raise ValueError("bad scan header")
    if not lines[-1].startswith("# summary: "):
        raise ValueError("missing scan summary")
    rows = {}
    for line in lines[1:-1]:
        pid, num, den, sec, sign = line.split(",")
        rows[int(pid)] = (float(num), float(den), float(sec), sign)
    summary = dict(item.split("=", 1) for item in lines[-1][len("# summary: "):].split())
    return rows, summary


def check_scan(text: str, workload, refs=None) -> int:
    """Failed planes of one scan output (see module docstring)."""
    count = workload.ops_per_round
    try:
        rows, summary = parse_scan_csv(text)
    except (ValueError, IndexError):
        return count
    routes, gram = refs if refs is not None else reference_numerators(workload)
    failed = 0
    for pid in range(count):
        row = rows.get(pid)
        if row is None or not all(math.isfinite(v) for v in row[:3]):
            failed += 1
            continue
        num, den, sec, sign = row
        ok = all(relerr(num, route[pid]) <= ROUTE_RELERR for route in routes)
        ok = ok and relerr(den, gram[pid]) <= ROUTE_RELERR
        ok = ok and relerr(sec, num / den) <= ROUTE_RELERR and sign == sign_of(sec)
        failed += not ok
    signs = [rows[pid][3] for pid in sorted(rows)]
    sectionals = [rows[pid][2] for pid in sorted(rows)]
    try:
        summary_ok = (
            len(rows) == count
            and int(summary["count"]) == len(rows)
            and int(summary["negative"]) == signs.count("-")
            and int(summary["zero"]) == signs.count("0")
            and int(summary["positive"]) == signs.count("+")
            and float(summary["min_k"]) == min(sectionals)
            and float(summary["max_k"]) == max(sectionals)
        )
    except (KeyError, ValueError):
        summary_ok = False
    # the summary is the scan's result: when it disagrees with the rows, every plane fails
    return failed if summary_ok else count


# ---------------------------------------------------------------------------
# geodesic, dense
# ---------------------------------------------------------------------------


def reference_magnetic_trajectory(workload) -> np.ndarray:
    """Implicit midpoint through ``rhs_magnetic``, with its own fixed-point loop.

    Rows are (u1, u2, u3, v1, v2, v3) at every step, starting from the input.
    """
    from liecurv import catalog
    from liecurv.algebra import DenseBackend
    from liecurv.geodesic import rhs_magnetic

    p = workload.params
    g = DenseBackend(catalog.so3(gram=p["gram"]))
    dt = p["dt"]

    def rhs(s):
        du, dv = rhs_magnetic(g, s[:3], s[3:])
        return np.concatenate([du, dv])

    out = np.empty((p["steps"] + 1, 6))
    s = np.array(p["u"] + p["alpha"], dtype=float)
    out[0] = s
    for n in range(p["steps"]):
        mid = s + 0.5 * dt * rhs(s)
        for _ in range(100):
            nxt = s + 0.5 * dt * rhs(mid)
            done = np.max(np.abs(nxt - mid)) <= 1e-15 * (1.0 + np.max(np.abs(s)))
            mid = nxt
            if done:
                break
        s = 2.0 * mid - s
        out[n + 1] = s
    return out


def check_geodesic_dense(text: str, workload, ref=None) -> int:
    """Failed steps of one magnetic-so(3) trajectory in CSV form."""
    steps = workload.ops_per_round
    p = workload.params
    lines = text.splitlines()
    header = "t,u1,u2,u3,alpha1,alpha2,alpha3,energy"
    try:
        if not lines or lines[0] != header:
            raise ValueError("bad trajectory header")
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]], dtype=float)
        if table.ndim != 2 or table.shape[1] != 8:
            raise ValueError("bad trajectory rows")
    except ValueError:
        return steps
    if ref is None:
        ref = reference_magnetic_trajectory(workload)
    gram = np.diag(p["gram"])
    n = min(len(table), len(ref))
    t, states, energy = table[:n, 0], table[:n, 1:7], table[:n, 7]
    recomputed = (np.einsum("ni,ij,nj->n", states[:, :3], gram, states[:, :3])
                  + np.einsum("ni,ij,nj->n", states[:, 3:], gram, states[:, 3:]))
    e0 = recomputed[0]
    scale = np.maximum(1.0, np.max(np.abs(ref[:n]), axis=1))
    ok = (
        np.all(np.isfinite(table[:n]), axis=1)
        & (np.max(np.abs(states - ref[:n]), axis=1) <= ROUTE_RELERR * scale)
        & (np.abs(t - np.arange(n) * p["dt"]) <= ROUTE_RELERR * np.maximum(1.0, t))
        & (np.abs(energy - recomputed) <= ROUNDOFF * np.maximum(1.0, np.abs(recomputed)))
        & (np.abs(recomputed - e0) <= MIDPOINT_DRIFT * e0)
    )
    # a wrong initial row makes the whole trajectory suspect
    if not ok[0]:
        return steps
    missing = abs(steps + 1 - len(table))
    return min(steps, int(np.sum(~ok[1:])) + missing)


# ---------------------------------------------------------------------------
# geodesic, torus
# ---------------------------------------------------------------------------


def _field_from_rows(torus, rows):
    comps = ({}, {})
    for parity, k1, k2, coeff, comp in rows:
        key = (int(k1), int(k2), parity)
        target = comps[int(comp) - 1]
        target[key] = target.get(key, 0.0) + float(coeff)
    return torus.TrigVectorField(torus.TrigFunction(comps[0]), torus.TrigFunction(comps[1]))


def _energy_and_divergence(rows):
    """L^2 energy and relative divergence of a field given as canonical mode rows."""
    comps = ({}, {})
    for parity, k1, k2, coeff, comp in rows:
        comps[int(comp) - 1][(int(k1), int(k2), parity)] = float(coeff)
    energy = sum((4.0 if key[:2] == (0, 0) else 2.0) * math.pi**2 * v * v
                 for comp in comps for key, v in comp.items())
    keys = set(comps[0]) | set(comps[1])
    scale = max([abs(v) for comp in comps for v in comp.values()] + [0.0])
    kmax = max([max(abs(k1), abs(k2)) for k1, k2, _ in keys] + [0])
    div = max([abs(k1 * comps[0].get((k1, k2, p), 0.0) + k2 * comps[1].get((k1, k2, p), 0.0))
               for k1, k2, p in keys] + [0.0])
    return energy, div / max(1.0, scale * (1.0 + kmax)), kmax


def check_geodesic_torus(text: str, workload) -> int:
    """Failed steps of one capped Euler trajectory in JSONL form."""
    from liecurv import torus
    from liecurv.geodesic import geodesic_rhs

    steps = workload.ops_per_round
    p = workload.params
    try:
        records = [json.loads(line) for line in text.splitlines()]
        rows = [rec["u"] for rec in records]
        times = [float(rec["t"]) for rec in records]
        emitted = [float(rec["energy"]) for rec in records]
        summaries = [_energy_and_divergence(r) for r in rows]
    except (ValueError, KeyError, TypeError):
        return steps
    if not records:
        return steps
    e0 = _energy_and_divergence(p["rows"])[0]
    ok = []
    for n, ((energy, div, kmax), t, e_out) in enumerate(zip(summaries, times, emitted)):
        ok.append(
            math.isfinite(energy) and math.isfinite(e_out)
            and div <= 1e-10
            and (n == 0 or kmax <= p["cap"])
            and abs(t - n * p["dt"]) <= ROUTE_RELERR * max(1.0, t)
            and relerr(e_out, energy) <= ROUNDOFF
            and abs(energy - e0) <= RK4_DRIFT * e0
        )
    first = _field_from_rows(torus, rows[0])
    if (first - _field_from_rows(torus, p["rows"])).coefficient_scale() > 0.0 or not ok[0]:
        return steps
    if len(records) == steps + 1 and ok[-1]:
        # the integrated vector field is Euler's: compare the CLI's capped RHS
        # with the displayed equation -P(nabla_u u), both truncated at the cap
        u = _field_from_rows(torus, rows[-1])
        rhs = torus.capped_rhs(geodesic_rhs(torus.VolumeFieldBackend()), p["cap"])(u)
        direct = torus.truncate_state(torus.euler_rhs_direct(u), p["cap"])
        scale = max(1.0, direct.coefficient_scale())
        ok[-1] = (rhs - direct).coefficient_scale() <= ROUTE_RELERR * scale
    missing = abs(steps + 1 - len(records))
    return min(steps, sum(not v for v in ok[1:]) + missing)


def check(text: str, workload) -> int:
    """Failed operations of one output of ``workload``."""
    if workload.kind == "scan":
        return check_scan(text, workload)
    if workload.name == "geodesic-dense":
        return check_geodesic_dense(text, workload)
    return check_geodesic_torus(text, workload)
