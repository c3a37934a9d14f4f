"""Verify the composite lattice symmetries that pin the band touchings.

Each touching regime carries a composite anti-unitary operation (sublattice
swap, conjugation, translation, optionally a reflection, a diagonal
parameter exchange and site-dependent phases).  The checks run twice: on
the Bloch matrix over a momentum grid, and against an explicit operator
matrix on a small periodic torus.
"""

import numpy as np

from nhdeg import (ModelParams, builtin_spec, check_bloch, check_realspace,
                   pair_product_phase, symmetry_survey)

REGIMES = {
    "nearest-neighbor": ModelParams(gamma=0.5, gx=0.5, gy=0.3),
    "diagonal, gamma=0": ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.0),
    "diagonal, gamma=pi/2": ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=np.pi / 2),
    "everything on": ModelParams(t1=0.4, v=0.7, gamma=0.4, gx=0.2, gy=0.1,
                                 ga=0.3, gb=0.2),
}

for label, p in REGIMES.items():
    survey = symmetry_survey(p, 24, 24)
    holding = ", ".join(survey["holding"]) or "none"
    print(f"{label:22s} holding: {holding}")

print("\ndouble-track check (Bloch grid vs explicit 4x4 torus operator):")
p = REGIMES["diagonal, gamma=0"]
for name in ("upsilon", "upsilon_prime", "upsilon_doubleprime"):
    spec = builtin_spec(name)
    rep_b = check_bloch(p, spec, 24, 24)
    rep_r = check_realspace(p, spec, 4, 4)
    print(f"  {name:22s} bloch {'holds' if rep_b.holds else 'fails'} "
          f"({max(rep_b.right_residual, rep_b.left_residual):.1e})   "
          f"torus {'holds' if rep_r.holds else 'fails'} "
          f"({max(rep_r.right_residual, rep_r.left_residual):.1e})")

print("\npair products at the protected momenta (must be -1):")
for name, k, where in [("upsilon", (np.pi / 2, np.pi / 2), "X"),
                       ("upsilon_prime", (np.pi, 0.0), "M"),
                       ("upsilon_doubleprime", (0.0, 0.0), "zone center")]:
    val = pair_product_phase(builtin_spec(name), k)
    print(f"  {name:22s} at {where:12s}: {val}")

print("\nbreaking the nearest-neighbor symmetry lifts the X degeneracy:")
from nhdeg import dispersion
for t1 in (0.0, 0.1, 0.3, 0.5):
    p = ModelParams(gamma=0.5, gx=0.5, gy=0.3, t1=t1)
    plus, minus = dispersion(p, np.pi / 2, np.pi / 2)
    print(f"  t1 = {t1:.1f}: X splitting |eps+ - eps-| = {abs(plus - minus):.4f}")
