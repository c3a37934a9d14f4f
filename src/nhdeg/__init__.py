"""Numerical toolkit for non-Hermitian band degeneracies.

Verifies that every non-defective twofold degeneracy of a complex matrix is
protected by a pair of anti-unitary operators with nonunity square, and
reproduces the degeneracy, symmetry, phase-boundary and open-boundary
phenomenology of a 2D nonreciprocal tight-binding model.
"""

__version__ = "0.1.0"

from .linalg import (CoalescenceReport, Eigensystem, coalescence, discriminant,
                     eigensystem2, eigensystem_n)
from .model import (DVector, Expansion, ModelParams, Momentum, bloch_hamiltonian,
                    d_vector, discriminant_function, dispersion, linear_expansion,
                    load_params, phase_boundaries, phase_classify,
                    quadratic_expansion, real_space_hamiltonian, save_params,
                    weyl_dispersion)
from .ribbon import (LocalizationReport, RibbonBand, ZeroModePairReport,
                     bulk_gap_interval, in_gap_indices, localization,
                     obc_defective_check, ribbon_hamiltonian, ribbon_spectrum,
                     skin_metric)
from .scanner import (DegeneracyPoint, ScalarField, ScanResult, ZeroCurve,
                      fermi_curves, find_degeneracies, fold_points,
                      scan_discriminant, zero_curves)
from .serialize import (FORMAT, read_vector_field_csv, write_band_csv,
                        write_json, write_vector_field_csv)
from .symmetry import (CompositeSymmetrySpec, SymmetryReport, builtin_spec,
                       check_bloch, check_realspace, pair_product_phase,
                       symmetry_survey)
from .theorem import (AntiunitaryOperator, DegenerateSubspace,
                      extract_degenerate_subspace, make_upsilon_left,
                      make_upsilon_right, random_degenerate_hamiltonian,
                      run_ensemble, theorem_report, verify_intertwining,
                      verify_orthogonality, verify_pair_product,
                      verify_swap_action)

__all__ = [name for name in dir() if not name.startswith("_")]
