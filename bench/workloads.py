"""The four benchmark workloads and their seeded inputs.

Every input the program sees (selectors, seeds, Gram diagonals, state files)
is derived from the benchmark's ``--seed``; the same seed gives byte-identical
inputs.  Each workload records why it is in the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Round sizes.  One round is one whole CLI invocation, and ``ops_per_s`` is
#: taken from the fastest round, so rounds are kept short (about 0.2-1 s on a
#: 2-core Xeon): a 25 s run then holds dozens of them, and at least one runs
#: while the machine's other tenants leave the core alone.
SCAN_DENSE_COUNT = 100
SCAN_DENSE_DIM = 32
SCAN_MHD_COUNT = 3
SCAN_MHD_BAND = 2
GEODESIC_DENSE_STEPS = 2000
GEODESIC_DENSE_DT = 1e-3
GEODESIC_TORUS_STEPS = 1
GEODESIC_TORUS_DT = 1e-3
GEODESIC_TORUS_CAP = 6
GEODESIC_TORUS_BAND = 2


@dataclass
class Workload:
    name: str
    why: str
    kind: str  # "scan" or "geodesic": operations are planes or steps
    #: the backend flag and selector, e.g. ("--semidirect", "mhd")
    selector: tuple[str, str]
    #: CLI arguments after the backend flag; ``{state}`` and ``{out}`` are filled in
    args: list[str]
    ops_per_round: int
    files: dict[str, str] = field(default_factory=dict)
    #: workload parameters the output checks need
    params: dict = field(default_factory=dict)

    @property
    def op_name(self) -> str:
        return "planes" if self.kind == "scan" else "steps"

    def argv(self, out_path: Path, input_dir: Path) -> list[str]:
        subs = {"out": str(out_path)}
        subs.update({key: str(input_dir / fname) for key, fname in self.files.items()})
        return [self.kind, *self.selector, *(a.format(**subs) for a in self.args)]


WHY = {
    "scan-dense": (
        "64-dim dense semidirect product: sampling, 18-term expansion and dense "
        "primitives, product validation in set-up; never touches torus"
    ),
    "scan-mhd": (
        "MHD band-2 planes: about 90% of time in torus.multiply on many products "
        "of small supports"
    ),
    "geodesic-dense": (
        "serial implicit-midpoint chain of tiny dense right-hand sides; "
        "trajectory and CSV emission grow with the step count"
    ),
    "geodesic-torus": (
        "capped Euler RK4 on the torus: few products on large supports, the only "
        "workload that exercises capped_rhs"
    ),
}

NAMES = tuple(WHY)


def _seed_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator per workload, derived from the benchmark seed."""
    salt = sum((i + 1) * ord(c) for i, c in enumerate(name))
    return np.random.Generator(np.random.PCG64([int(seed), salt]))


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def band_wavevectors(band: int):
    """Integer wavevectors k with first nonzero component positive and |k|_inf <= band."""
    return [(k1, k2) for k1 in range(0, band + 1) for k2 in range(-band, band + 1)
            if (k1 > 0 or k2 > 0) and max(abs(k1), abs(k2)) <= band]


def divergence_free_state(rng: np.random.Generator, band: int):
    """Random divergence-free band-limited field as mode rows, with unit mean energy.

    Rows are ``(parity, k1, k2, coeff, component)``; each wavevector gets the
    perpendicular direction (-k2, k1), so every mode is divergence-free.  The
    field is scaled so that its L^2 energy is 4 pi^2 (unit mean square speed).
    """
    rows = [("cos", 0, 0, float(rng.standard_normal()), 1),
            ("cos", 0, 0, float(rng.standard_normal()), 2)]
    for k1, k2 in band_wavevectors(band):
        for parity in ("cos", "sin"):
            c = float(rng.standard_normal())
            if k2:
                rows.append((parity, k1, k2, -k2 * c, 1))
            rows.append((parity, k1, k2, k1 * c, 2))
    energy = sum((4.0 if k1 == k2 == 0 else 2.0) * math.pi**2 * v * v
                 for _p, k1, k2, v, _c in rows)
    scale = (4.0 * math.pi**2 / energy) ** 0.5
    return [(p, k1, k2, scale * v, c) for p, k1, k2, v, c in rows if v != 0.0]


def make(name: str, seed: int, input_dir: Path) -> Workload:
    """Build one workload from the benchmark seed, writing its input files."""
    rng = _seed_stream(seed, name)
    if name == "scan-dense":
        algebra_seed, scan_seed = _program_seed(rng), _program_seed(rng)
        selector = f"magnetic:random-solvable:{SCAN_DENSE_DIM}:{algebra_seed}"
        return Workload(
            name, WHY[name], "scan", ("--semidirect", selector),
            ["--family", "full", "--seed", str(scan_seed), "--count", str(SCAN_DENSE_COUNT),
             "--output", "{out}"],
            SCAN_DENSE_COUNT,
            params={"seed": scan_seed, "count": SCAN_DENSE_COUNT, "family": "full", "band": 2},
        )
    if name == "scan-mhd":
        scan_seed = _program_seed(rng)
        return Workload(
            name, WHY[name], "scan", ("--semidirect", "mhd"),
            ["--band", str(SCAN_MHD_BAND), "--family", "full", "--seed", str(scan_seed),
             "--count", str(SCAN_MHD_COUNT), "--output", "{out}"],
            SCAN_MHD_COUNT,
            params={"seed": scan_seed, "count": SCAN_MHD_COUNT, "family": "full",
                    "band": SCAN_MHD_BAND},
        )
    if name == "geodesic-dense":
        gram = [float(v) for v in rng.uniform(0.5, 3.0, size=3)]
        u, alpha = rng.standard_normal(3), 0.5 * rng.standard_normal(3)
        # energy 0.1 keeps the midpoint solver at two fixed-point passes (three RHS
        # evaluations per step) for every seed; at energy 1 the count flips between seeds
        scale = (0.1 / float(np.dot(gram, u * u) + np.dot(gram, alpha * alpha))) ** 0.5
        u, alpha = scale * u, scale * alpha
        state = "[state]\nu = {}\nalpha = {}\n".format(
            " ".join(repr(float(v)) for v in u), " ".join(repr(float(v)) for v in alpha))
        (input_dir / "geodesic-dense.cfg").write_text(state)
        selector = "magnetic:so3:" + ",".join(repr(v) for v in gram)
        return Workload(
            name, WHY[name], "geodesic", ("--semidirect", selector),
            ["--state-file", "{state}", "--scheme", "implicit_midpoint",
             "--dt", repr(GEODESIC_DENSE_DT), "--steps", str(GEODESIC_DENSE_STEPS),
             "--format", "csv", "--output", "{out}"],
            GEODESIC_DENSE_STEPS,
            files={"state": "geodesic-dense.cfg"},
            params={"gram": gram, "u": [float(v) for v in u], "alpha": [float(v) for v in alpha],
                    "dt": GEODESIC_DENSE_DT, "steps": GEODESIC_DENSE_STEPS},
        )
    if name == "geodesic-torus":
        rows = divergence_free_state(rng, GEODESIC_TORUS_BAND)
        body = "\n".join(f"    {p} {k1} {k2} {v!r} {c}" for p, k1, k2, v, c in rows)
        (input_dir / "geodesic-torus.cfg").write_text(f"[state]\nu =\n{body}\n")
        return Workload(
            name, WHY[name], "geodesic", ("--algebra", "torus-vol"),
            ["--state-file", "{state}", "--scheme", "rk4",
             "--dt", repr(GEODESIC_TORUS_DT), "--steps", str(GEODESIC_TORUS_STEPS),
             "--support-cap", str(GEODESIC_TORUS_CAP), "--format", "jsonl", "--output", "{out}"],
            GEODESIC_TORUS_STEPS,
            files={"state": "geodesic-torus.cfg"},
            params={"rows": rows, "dt": GEODESIC_TORUS_DT, "steps": GEODESIC_TORUS_STEPS,
                    "cap": GEODESIC_TORUS_CAP},
        )
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
