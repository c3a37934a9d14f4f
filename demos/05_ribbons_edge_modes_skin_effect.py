"""Open-boundary ribbons: chiral edge modes, skin effect, zero-mode pairs.

A ribbon of the gapped topological regime hosts one in-gap chiral branch
per edge.  With the diagonal nonreciprocity switched on the bulk states of
the y-open ribbon pile up at a boundary (the skin effect), and the x-open
ribbon's zero-mode pair coalesces into an open-boundary defective point at
transverse momentum pi/2 when the Peierls phase vanishes.
"""

import numpy as np

from nhdeg import (ModelParams, bulk_gap_interval, in_gap_indices,
                   localization, obc_defective_check, ribbon_spectrum,
                   skin_metric, write_band_csv)

p_ti = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=0.5)
N = 30

print("in-gap modes of the y-open ribbon (one per edge):")
for k in (np.pi / 2 - 0.3, np.pi / 2 - 0.1, np.pi / 2 + 0.1):
    band = ribbon_spectrum(p_ti, "y", N, k_values=[k])[0]
    gap = bulk_gap_interval(p_ti, "y", k)
    ing = in_gap_indices(band, gap)
    modes = ", ".join(f"{band.eigenvalues[i]:+.4f} ({band.edge_flags[i]})"
                      for i in ing)
    print(f"  k = {k:+.3f}: {modes}")

print("\nimaginary parts deep in the gap (x-open vs y-open):")
for axis in ("x", "y"):
    band = ribbon_spectrum(p_ti, axis, N, k_values=[1.2])[0]
    gap = bulk_gap_interval(p_ti, axis, 1.2)
    ims = [abs(band.eigenvalues[i].imag) for i in in_gap_indices(band, gap)]
    print(f"  open {axis}: max |Im eps| of the in-gap modes = {max(ims):.4f}")

print("\nskin effect: mean bulk inverse participation ratio at k = 0")
base = ModelParams(t1=0.75, gamma=0.5)
skin = skin_metric(p_ti, "y", ribbon_spectrum(p_ti, "y", N, k_values=[0.0])[0])
herm = skin_metric(base, "y", ribbon_spectrum(base, "y", N, k_values=[0.0])[0])
print(f"  nonreciprocal {skin:.4f} vs Hermitian {herm:.4f} "
      f"(ratio {skin / herm:.2f}; uniform baseline 1/{2 * N} = {1 / (2 * N):.4f})")

print("\nzero-mode pair of the x-open ribbon at transverse momentum pi/2:")
for gamma, label in ((0.0, "gamma = 0"), (0.5, "gamma = 0.5")):
    p = ModelParams(t1=0.75, ga=0.5, gb=0.3, gamma=gamma)
    rep = obc_defective_check(ribbon_spectrum(p, "x", N, k_values=[np.pi / 2])[0])
    print(f"  {label}: eigenvalues {rep.eigenvalues[0]:.2e}, "
          f"{rep.eigenvalues[1]:.2e}; eigenvector overlap {rep.overlap:.12f}")

band = ribbon_spectrum(p_ti, "x", N, k_values=[np.pi / 2])[0]
order = np.argsort(np.abs(band.eigenvalues))[:2]
for i in order:
    loc = localization(band.eigenvectors[:, i], N)
    print(f"  skin-pinned zero mode: ipr {loc.ipr:.3f}, center {loc.center_of_mass:.1f}")

bands = ribbon_spectrum(p_ti, "x", N, k_samples=64)
write_band_csv("ribbon_bands.csv", bands)
print("\n64-momentum band structure exported to ribbon_bands.csv")
