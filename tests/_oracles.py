"""Independent oracles shared by the test modules (scipy is a test extra)."""

import numpy as np
from scipy.optimize import linear_sum_assignment


def match_eigenvalue_multisets(a, b) -> float:
    """Max pairing distance between two equally sized eigenvalue multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError(f"multiset sizes differ: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
