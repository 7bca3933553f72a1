"""Seeded input of the `nonlinear` workload.

    python3 perfbench/inputs.py --seed N --out DIR [--tiny]

writes `nonlinear.json`, the nonlinear ladder's set-up, into DIR.  The seed
moves the initial-data shape only: it never changes how much work a round
does (grid sizes, step counts).  The `reference` and `refinement` workloads
take no seeded input: they run `configs/reference.ini` and the acceptance
parameters unchanged.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import random

# Criterion 12's small-data system with a sinusoidal delay law anchored at its
# minimum (phase -pi/2): tau(t) = tau0 + A (1 - cos(w t)) in [tau0, tau0 + 2A]
# with slope at most A w = d.
NONLINEAR = {
    "system": {"a": 0.1, "a1": 0.0065, "L": 1.0, "alpha": 0.05, "beta": 5e-4,
               "alpha_p": 0.5, "beta_p": 0.5, "rho_nl": 0.5},
    "delay": {"form": "sinusoidal", "tau0": 0.5, "amplitude": 0.1,
              "frequency": 2.0, "phase": -math.pi / 2, "M": 0.7, "d": 0.2},
    "levels": [[50, 4e-3], [101, 2e-3], [203, 1e-3]],
    "T": 2.0,
    "amplitude": 1e-3,
    "rho_res": 64,
}
NONLINEAR_TINY = {"levels": [[12, 8e-3], [25, 4e-3], [51, 2e-3]], "T": 0.5}
SHAPE_JITTER = 0.25


def nonlinear_setup(seed: int, tiny: bool = False) -> dict:
    """Nonlinear ladder set-up.

    The initial data are criterion 12's profiles times seeded polynomial
    factors in s = x/L:
        eta0   = A x^3 (L-x)^2 / L^5 (1 + c0 s + c1 s^2)
        omega0 = A x^2 (L-x)^2 / L^4 (1 + c2 s)
    which keep the clamped conditions and eta_xx(0) = 0.
    """
    rng = random.Random(f"nonlinear-{seed}")
    setup = copy.deepcopy(NONLINEAR)
    if tiny:
        setup.update(NONLINEAR_TINY)
    setup["shape"] = {
        "eta": [rng.uniform(-SHAPE_JITTER, SHAPE_JITTER) for _ in range(2)],
        "omega": [rng.uniform(-SHAPE_JITTER, SHAPE_JITTER)],
    }
    return setup


def write(out: str, seed: int, tiny: bool = False) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "nonlinear.json"), "w") as fh:
        json.dump(nonlinear_setup(seed, tiny), fh, indent=1)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()
    write(a.out, a.seed, a.tiny)
