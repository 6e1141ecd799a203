"""Cold 2-D resolvent run: ``resolvlab solve`` on a 2-D grid, with seeded data.

    python3 resolvbench/solve2d.py --config configs/baseline.cfg --out DIR --seed N
                                   [other resolvlab solve arguments...]

The CLI cannot run this case by itself: ``resolvlab solve`` with
``dims = 2`` dies in its 1-D-only built-in data builder
``_builtin_gaussian_data`` with an uncaught ValueError (exit status 1,
where a configuration or numerical failure would give 2 or 3).  So this
shim writes the config with its [grid] switched to GRID_2D into DIR,
puts a seeded 2-D Gaussian builder in place of that data builder, and
runs ``resolvlab.cli.main(["solve", ...])``.  The solve, the residual
verdicts, the artifacts, report.json and the exit status are the CLI's.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

import resolvlab.cli
from resolvlab.config import dumps_config, parse_config
from resolvlab.grids import BoundaryField, HalfSpaceField
from resolvlab.halfspace import ResolventData

# 32^2 modes x 48 nodes: the dense Lame matrices (modes x 3n x 3n complex)
# take 0.34 GB, about 0.38 GB peak RSS; the 64^2 x 96 baseline grid would
# need 5.4 GB.
GRID_2D = {"dims": 2, "tangential_points": 32, "normal_points": 48}


def config_text(path: str) -> str:
    """The config at ``path`` with its [grid] switched to GRID_2D."""
    with open(path) as fh:
        raw = parse_config(fh.read())
    raw.setdefault("grid", {}).update(GRID_2D)
    return dumps_config(raw)


def gaussian_data_2d(seed: int):
    """A ``_builtin_gaussian_data`` stand-in for 2-D grids, drawn from ``seed``.

    Gaussians centred within 0.5 of the origin, with widths at most 1, so
    every field is below 1e-10 of its peak at the box edge, as
    ``solve_full_resolvent`` requires.
    """
    def build(tg, ng, block):
        rng = np.random.default_rng(seed)
        X, Y = np.meshgrid(tg.x, tg.x, indexing="ij")
        t = ng.nodes
        amp = rng.uniform(0.5, 1.5)

        def surface(w):
            x0, y0 = rng.uniform(-0.5, 0.5, size=2)
            return amp * np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2 * w**2))

        def volume(w, w_t):
            return surface(w)[..., None] * np.exp(-(t**2) / (2 * w_t**2))

        w = rng.uniform(0.8, 1.0)
        d = HalfSpaceField((0.5 * volume(w, 2.0))[..., None].astype(complex), tg, ng)
        F = HalfSpaceField(np.stack([volume(w, 1.5), -0.5 * volume(w, 2.0),
                                     0.7 * volume(0.9 * w, 2.5)], axis=-1).astype(complex),
                           tg, ng)
        gb = surface(w)
        G = BoundaryField(np.stack([0.3 * gb, 0.2 * gb, -0.6 * gb], axis=-1).astype(complex),
                          tg)
        K = BoundaryField((0.8 * surface(w)).astype(complex), tg)
        return ResolventData(d=d, F=F, G=G, K=K)
    return build


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args, rest = ap.parse_known_args(argv)

    os.makedirs(args.out, exist_ok=True)
    config = os.path.join(args.out, "solve2d.cfg")
    with open(config, "w") as fh:
        fh.write(config_text(args.config))
    builtin = resolvlab.cli._builtin_gaussian_data
    resolvlab.cli._builtin_gaussian_data = gaussian_data_2d(args.seed)
    try:
        return resolvlab.cli.main(["solve", "--config", config, "--out", args.out,
                                   "--seed", str(args.seed), *rest])
    finally:
        resolvlab.cli._builtin_gaussian_data = builtin


if __name__ == "__main__":
    sys.exit(main())
