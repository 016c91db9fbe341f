"""Configuration-file parsing and deterministic output writers.

Input files use a flat INI grammar (sections of key = value, multi-line
values indented).  Numbers in every output are written with Python's
shortest round-trip float representation, so identical runs are
byte-identical.

Grammar summary (see README for the full description):

* algebra file: section ``[algebra]`` with ``dim``, ``gram`` (``identity``,
  ``diag: d1, d2, ...`` or ``rows: r11 r12; r21 r22``) and ``structure``
  (lines ``i j k value``, 1-based, i < j; the antisymmetric completion is
  applied).
* semidirect file: sections ``[g]`` and ``[h]`` shaped like ``[algebra]``
  plus ``[action]`` with ``entries`` lines ``g-index h-row h-col value``.
* plane file: section ``[plane]``; keys ``x``/``y`` for a plain algebra,
  ``x_g``/``x_h``/``y_g``/``y_h`` for semidirect backends (omitted parts are
  zero); any other key is an error.  Finite elements are whitespace-separated
  coordinates; torus functions are lines ``parity k1 k2 coeff``; torus fields
  are lines ``parity k1 k2 coeff component``; |k1|, |k2| <= ``torus.MAX_WAVENUMBER``.
* state file: section ``[state]``; key ``u`` (plus ``alpha`` on semidirect
  backends) in the same element syntax.
"""

from __future__ import annotations

import configparser
import json
import math

import numpy as np

from .algebra import MAX_DIM, MetricAlgebraSpec
from .backend import Pair, SemidirectBackendBase
from .curvature import Plane
from .errors import ConfigError
from .semidirect import ActionSpec, SemidirectAlgebra, build_semidirect
from . import torus


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)  # values are literal text; '%' is no syntax
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp


def _require_section(cp: configparser.ConfigParser, section: str) -> configparser.ConfigParser:
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    return cp


def _number(token: str) -> float:
    """A finite float; nan and inf are rejected like any other malformed number."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def _parse_floats(text: str, what: str):
    try:
        return [_number(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"cannot parse numbers in {what}: {text!r}") from None


def _parse_gram(text: str, dim: int) -> np.ndarray:
    text = text.strip()
    if text == "identity":
        return np.eye(dim)
    if text.startswith("diag:"):
        entries = _parse_floats(text[len("diag:"):], "gram diagonal")
        if len(entries) != dim:
            raise ConfigError(f"gram diagonal needs {dim} entries, got {len(entries)}")
        return np.diag(entries)
    if text.startswith("rows:"):
        text = text[len("rows:"):]
    rows = [r for r in text.split(";") if r.strip()]
    matrix = [_parse_floats(r, "gram row") for r in rows]
    if len(matrix) != dim or any(len(r) != dim for r in matrix):
        raise ConfigError(f"gram must be a {dim}x{dim} matrix")
    return np.asarray(matrix)


def _index_entries(text: str, what: str, fields: str, bounds):
    """Each non-blank line ``fields value`` of ``text`` as (line, 0-based indices,
    value), for three 1-based indices checked against ``bounds``."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ConfigError(f"{what} line needs '{fields} value': {line!r}")
        try:
            index = tuple(int(p) - 1 for p in parts[:3])
            value = _number(parts[3])
        except ValueError:
            raise ConfigError(f"bad {what} line: {line!r}") from None
        if not all(0 <= i < n for i, n in zip(index, bounds)):
            raise ConfigError(f"{what} index out of range in: {line!r}")
        yield line, index, value


def parse_algebra_section(cp: configparser.ConfigParser, section: str) -> MetricAlgebraSpec:
    _require_section(cp, section)
    try:
        dim = cp.getint(section, "dim")
    except (configparser.NoOptionError, ValueError):
        raise ConfigError(f"[{section}] needs an integer 'dim'") from None
    if dim < 1:
        raise ConfigError(f"[{section}] needs a positive 'dim', got {dim}")
    if dim > MAX_DIM:
        raise ConfigError(f"[{section}] 'dim' {dim} exceeds the limit of {MAX_DIM}")
    gram = _parse_gram(cp.get(section, "gram", fallback="identity"), dim)
    structure = np.zeros((dim, dim, dim))
    text = cp.get(section, "structure", fallback="")
    for line, (i, j, k), value in _index_entries(text, "structure", "i j k", (dim, dim, dim)):
        if i == j:
            raise ConfigError(f"diagonal structure entry forbidden: {line!r}")
        structure[i, j, k] = value
        structure[j, i, k] = -value
    name = cp.get(section, "name", fallback="")
    return MetricAlgebraSpec(structure=structure, gram=gram, name=name)


def load_algebra_file(path: str) -> MetricAlgebraSpec:
    return parse_algebra_section(load_config(path), "algebra")


def load_semidirect_file(path: str) -> SemidirectAlgebra:
    cp = load_config(path)
    g = parse_algebra_section(cp, "g")
    h = parse_algebra_section(cp, "h")
    _require_section(cp, "action")
    mats = np.zeros((g.dim, h.dim, h.dim))
    text = cp.get("action", "entries", fallback="")
    for _, index, value in _index_entries(text, "action", "g-index h-row h-col", mats.shape):
        mats[index] = value
    return build_semidirect(g, h, ActionSpec(mats))


def _mode_lines(text: str, what: str, fields: str):
    """Each non-blank line ``fields`` of ``text``, 'parity k1 k2 coeff' plus an
    optional 'component', as ((k1, k2, parity), coeff, [component])."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != len(fields.split()):
            raise ConfigError(f"{what} mode line needs '{fields}': {line!r}")
        parity, k1, k2, coeff, *comp = parts
        if parity not in (torus.COS, torus.SIN):
            raise ConfigError(f"parity must be cos or sin: {line!r}")
        if comp and comp[0] not in ("1", "2"):
            raise ConfigError(f"component must be 1 or 2: {line!r}")
        try:
            key, value = (int(k1), int(k2), parity), _number(coeff)
        except ValueError:
            raise ConfigError(f"bad {what} mode line: {line!r}") from None
        if max(abs(key[0]), abs(key[1])) > torus.MAX_WAVENUMBER:
            raise ConfigError(f"wavevector above the limit |k|_inf <= {torus.MAX_WAVENUMBER}: {line!r}")
        yield key, value, comp


def _parse_trig(text: str, field: bool):
    """A torus function from its mode lines, or a field from lines that name a component."""
    comps = ({}, {})
    fields = "parity k1 k2 coeff component" if field else "parity k1 k2 coeff"
    for key, coeff, comp in _mode_lines(text, "field" if field else "function", fields):
        target = comps[int(comp[0]) - 1 if field else 0]
        target[key] = target.get(key, 0.0) + coeff
    if field:
        return torus.TrigVectorField(torus.TrigFunction(comps[0]), torus.TrigFunction(comps[1]))
    return torus.TrigFunction(comps[0])


def parse_element(backend_part, text: str):
    """Parse one element in the syntax matching the backend factor's zero."""
    zero = backend_part.zero()
    if isinstance(zero, np.ndarray):
        coords = _parse_floats(text, "element coordinates")
        if len(coords) != len(zero):
            raise ConfigError(f"expected {len(zero)} coordinates, got {len(coords)}")
        return np.asarray(coords)
    if isinstance(zero, (torus.TrigFunction, torus.TrigVectorField)):
        return _parse_trig(text, isinstance(zero, torus.TrigVectorField))
    raise ConfigError(f"no element syntax for backend {type(backend_part).__name__}")


def _elements(path, section, backend, keys, pair_keys):
    """The elements of ``section`` under ``keys``, or on a semidirect backend the
    pairs of the elements under ``pair_keys`` (an omitted part is zero).  A key
    the backend does not read is an error, not a silently ignored line."""
    cp = _require_section(load_config(path), section)
    semidirect = isinstance(backend, SemidirectBackendBase)
    known = [name for pair in pair_keys for name in pair] if semidirect else keys
    unknown = [name for name in cp.options(section) if name not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]; "
                          f"this backend reads {', '.join(known)}")

    def get(name, factor):
        if cp.has_option(section, name):
            return parse_element(factor, cp.get(section, name))
        if not semidirect:
            raise ConfigError(f"missing key {name!r} in [{section}]")
        return factor.zero()

    if semidirect:
        return [Pair(get(g_key, backend.g), get(h_key, backend.h)) for g_key, h_key in pair_keys]
    return [get(key, backend) for key in keys]


def load_plane_file(path: str, backend) -> Plane:
    return Plane(*_elements(path, "plane", backend, ["x", "y"], [("x_g", "x_h"), ("y_g", "y_h")]))


def load_state_file(path: str, backend):
    return _elements(path, "state", backend, ["u"], [("u", "alpha")])[0]


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def fmt(value: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(value))


def sign_of(k: float, zero_tol: float) -> str:
    if k != k or abs(k) <= zero_tol:  # nan counts as the zero band
        return "0"
    return "+" if k > 0 else "-"


def sign_summary(ks, zero_tol: float) -> dict:
    """Sign counts and extreme values of a list of sectional curvatures."""
    signs = [sign_of(k, zero_tol) for k in ks]
    return {
        "count": len(signs),
        "negative": signs.count("-"),
        "zero": signs.count("0"),
        "positive": signs.count("+"),
        "min_k": min(ks, default=float("nan")),
        "max_k": max(ks, default=float("nan")),
    }


def element_to_jsonable(element):
    """Serialize an element in the same shape the reader accepts."""
    if isinstance(element, Pair):
        return {"g": element_to_jsonable(element.x), "h": element_to_jsonable(element.y)}
    if isinstance(element, torus.TrigFunction):
        return [[p, k1, k2, v] for (k1, k2, p), v in element.modes.items()]
    if isinstance(element, torus.TrigVectorField):
        rows = [[p, k1, k2, v, 1] for (k1, k2, p), v in element.comp1.modes.items()]
        rows += [[p, k1, k2, v, 2] for (k1, k2, p), v in element.comp2.modes.items()]
        return rows
    return [float(v) for v in np.asarray(element).ravel()]


def dumps_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=True)


_PLANE_KEYS = ("plane_id", "numerator", "denominator", "sectional", "sign")


def _plane_record(plane_id: int, values, zero_tol: float) -> dict:
    """One plane's row: its id, its (numerator, denominator, sectional) triple
    and the sign of K, keyed as the CSV header names the cells."""
    numerator, denominator, k = values
    return dict(zip(_PLANE_KEYS, (plane_id, numerator, denominator, k, sign_of(k, zero_tol))))


def _plane_cells(record: dict) -> list[str]:
    plane_id, numerator, denominator, k, sign = record.values()
    return [str(plane_id), fmt(numerator), fmt(denominator), fmt(k), sign]


def _breakdown_record(br, zero_tol: float) -> dict:
    return _plane_record(0, (br.numerator, br.denominator, br.sectional), zero_tol)


def breakdown_csv_lines(br, zero_tol: float):
    """CSV for one plane's curvature breakdown: the plane cells, then each term."""
    labels, values = zip(*br.terms)
    cells = _plane_cells(_breakdown_record(br, zero_tol)) + [fmt(v) for v in values]
    return [",".join(_PLANE_KEYS + labels), ",".join(cells)]


def breakdown_jsonl_lines(br, zero_tol: float):
    return [dumps_json({**_breakdown_record(br, zero_tol), "terms": dict(br.terms)})]


def _scan(values, zero_tol: float):
    """The plane rows of a scan, one per (numerator, denominator, sectional)
    triple, and their sign summary."""
    records = [_plane_record(plane_id, v, zero_tol) for plane_id, v in enumerate(values)]
    return records, sign_summary([r["sectional"] for r in records], zero_tol)


def scan_csv_lines(values, zero_tol: float):
    records, summary = _scan(values, zero_tol)
    lines = [",".join(_PLANE_KEYS)] + [",".join(_plane_cells(r)) for r in records]
    lines.append(
        "# summary: count={count} negative={negative} zero={zero} positive={positive} "
        "min_k={min_k} max_k={max_k}".format(
            **{**summary, "min_k": fmt(summary["min_k"]), "max_k": fmt(summary["max_k"])}
        )
    )
    return lines


def scan_jsonl_lines(values, zero_tol: float):
    records, summary = _scan(values, zero_tol)
    return [dumps_json(r) for r in records] + [dumps_json({"summary": summary})]


def _state_parts(state) -> dict:
    """A state's parts under their state-file keys: ``u``, plus ``alpha`` for a pair."""
    if isinstance(state, Pair):
        return {"u": state.x, "alpha": state.y}
    return {"u": state}


def trajectory_csv_lines(traj):
    """CSV for finite-dimensional trajectories: t, coordinates, energy, each row
    from the trajectory's flat coordinates; the header names the parts of the
    first state.  Torus states have no coordinates; the CLI refuses them as CSV
    before the run."""
    first = _state_parts(traj.to_state(traj.rows[0]))
    header = ["t"] + [f"{key}{i+1}" for key, part in first.items() for i in range(len(part))]
    lines = [",".join(header + ["energy"])]
    for t, row, energy in zip(traj.times, traj.rows, traj.energy):
        lines.append(",".join(map(repr, [float(t), *row.tolist(), float(energy)])))
    return lines


def trajectory_jsonl_lines(traj):
    lines = []
    for t, state, energy in zip(traj.times, traj.states, traj.energy):
        parts = {key: element_to_jsonable(part) for key, part in _state_parts(state).items()}
        lines.append(dumps_json({"t": t, **parts, "energy": energy}))
    return lines
