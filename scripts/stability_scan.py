#!/usr/bin/env python3
"""Sign statistics of sectional curvature: ideal flow vs ideal MHD on the 2-torus.

Samples seeded random planes over the same trigonometric mode family
(|k|_inf <= band) for three backends and tabulates the curvature signs:

* velocity planes on the volume-preserving group (ideal hydrodynamics),
* pure magnetic planes (0, A(Y1)), (0, A(Y2)) of the magnetic extension,
* mixed planes (X, 0), (0, A(Y)) of the magnetic extension,
* full random planes of the magnetic extension.

Negative sectional curvature is associated with exponential instability of
geodesics, so the comparison below shows a descriptive account of the
relative stability of the two systems for this mode family.  It is a report,
not an assertion: no pass/fail threshold is attached to the comparison.

Usage:
    python scripts/stability_scan.py [--seed 7] [--count 200] [--band 2]
"""

import argparse

from liecurv import torus
from liecurv.backend import stack
from liecurv.cli import NON_NEGATIVE_INT, WAVENUMBER
from liecurv.configio import sign_summary
from liecurv.curvature import curvature_numerator_generic, curvature_numerator_semidirect
from liecurv.sampling import sample_planes

ZERO_TOL = 1e-12


def sign_counts(numerator, backend, planes):
    """Sign summary of the planes' sectional curvatures, evaluated in one stacked call."""
    sectionals = []
    if planes:
        br = numerator(backend, stack([p.x for p in planes]), stack([p.y for p in planes]))
        sectionals = br.sectional.tolist()
    return sign_summary(sectionals, ZERO_TOL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=NON_NEGATIVE_INT, default=7)
    parser.add_argument("--count", type=NON_NEGATIVE_INT, default=200)
    parser.add_argument("--band", type=WAVENUMBER, default=2)
    args = parser.parse_args()

    vol = torus.VolumeFieldBackend()
    mhd = torus.MhdBackend()

    rows = []
    planes = sample_planes(vol, args.seed, args.count, band=args.band)
    rows.append(("euler velocity planes", sign_counts(curvature_numerator_generic, vol, planes)))
    for family, label in (("hh", "mhd pure magnetic planes"),
                          ("gh", "mhd mixed planes"),
                          ("full", "mhd full planes")):
        planes = sample_planes(mhd, args.seed, args.count, family=family, band=args.band)
        rows.append((label, sign_counts(curvature_numerator_semidirect, mhd, planes)))

    print(f"seed={args.seed} count={args.count} band={args.band} zero_tol={ZERO_TOL}")
    print(f"{'planes':<28}{'neg':>6}{'zero':>6}{'pos':>6}{'min K':>14}{'max K':>14}")
    for label, summary in rows:
        print(
            f"{label:<28}{summary['negative']:>6}{summary['zero']:>6}{summary['positive']:>6}"
            f"{summary['min_k']:>14.5g}{summary['max_k']:>14.5g}"
        )
    neg_euler = rows[0][1]["negative"]
    neg_mhd = rows[3][1]["negative"]
    print()
    print(
        f"negative-curvature fraction: euler {neg_euler}/{args.count}, "
        f"mhd full {neg_mhd}/{args.count}"
    )


if __name__ == "__main__":
    main()
