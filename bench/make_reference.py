"""Record the sweep_noisy reference estimates at the current commit.

    PYTHONPATH=src python3 bench/make_reference.py

For every estimator and every sweep radius it stores the clean estimate and
the standard deviation of the noise that the SNR adds to that estimate,
sigma * sqrt(sum_i (w(x_i) q_i)^2) / mu0 for node weights q_i and per-node
noise sigma.  Neither depends on the seed, so a noisy sweep at any seed can
be checked against them.  Re-record only when a change is meant to move the
estimates, and say so with the change.
"""
from __future__ import annotations

import json
import math

import numpy as np

import netmoment as nm
from workloads import DEMO_SCENE, SWEEP_REFERENCE, SWEEP_SNR_DB, sweep_radii


def main() -> None:
    scene = nm.scene_from_dict(DEMO_SCENE)
    radii = [float(a) for a in sweep_radii()]
    out = {"radii": radii, "estimates": {}}
    for spec in nm.all_specs():
        out["estimates"][spec.label()] = {"clean": [], "noise_std": []}
    for radius in radii:
        grid = nm.build_grid(radius)
        fmap = nm.sample_field(scene, grid)
        sigma = nm.noise_sigma(fmap, nm.NoiseSpec(SWEEP_SNR_DB, 0))
        for spec in nm.all_specs():
            w = nm.estimator_weight(spec, radius)(grid.nodes) * grid.weights
            entry = out["estimates"][spec.label()]
            entry["clean"].append(nm.estimate_moment(fmap, spec))
            entry["noise_std"].append(sigma * math.sqrt(float(np.sum(w * w))) / nm.MU0)
    with open(SWEEP_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
