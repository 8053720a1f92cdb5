"""Scan constant 2x2 symbols on the two-ray tree and report growth slopes.

For a symbol supported at index zero with block [[a, b], [c, d]] in the raw
pair basis, boundedness of the induced multiplication requires a = d and
b = c = 0.  This scan sweeps the off-constraint directions and prints the
slope of log compressed norms against depth, so the detection threshold can
be inspected directly.

Usage: python scripts/divergence_scan.py [--alpha 0.5] [--depth 14]
"""

from __future__ import annotations

import argparse

import numpy as np

import treeshift as ts


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--depth", type=int, default=14)
    ap.add_argument("--threshold", type=float, default=ts.multiplier.SLOPE_THRESHOLD)
    args = ap.parse_args()

    tree, weights = ts.generate_example("T2", args.depth, [args.alpha])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)

    print(f"two-ray tree, alpha={args.alpha}, depth={args.depth}, "
          f"threshold={args.threshold}")
    print(f"{'a':>6} {'b':>6} {'c':>6} {'d':>6} {'slope':>10}  verdict")
    grid = [0.0, 0.25, 1.0]
    for a in (1.0,):
        for d in grid:
            for b in grid[:2]:
                for c in grid[:2]:
                    block = np.array([[a, b], [c, d]])
                    sym = ts.two_ray_symbol(basis, args.alpha, [block])
                    rep = ts.membership_diagnostic(
                        S, basis, sym, range(1, args.depth - 1),
                        slope_threshold=args.threshold)
                    print(f"{a:6.2f} {b:6.2f} {c:6.2f} {d:6.2f} "
                          f"{rep.slope:10.4f}  {rep.verdict}")

    print()
    print("admissible two-term family (should stay bounded):")
    rng = np.random.default_rng(0)
    for _ in range(5):
        a0, d0, a1, d1 = rng.standard_normal(4).round(3)
        sym = ts.two_ray_admissible_symbol(basis, args.alpha, a0, d0, a1, d1)
        rep = ts.membership_diagnostic(S, basis, sym, range(1, args.depth - 1),
                                       slope_threshold=args.threshold)
        print(f"  a0={a0:+.3f} d0={d0:+.3f} a1={a1:+.3f} d1={d1:+.3f} "
              f"slope={rep.slope:8.4f}  {rep.verdict}")


if __name__ == "__main__":
    main()
