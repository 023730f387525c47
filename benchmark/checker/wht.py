"""Integer Walsh-Hadamard transform and XOR-convolution counts on (Z_2)^t."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def wht(values: np.ndarray) -> np.ndarray:
    """Unnormalised transform W(xi) = sum_x v(x) (-1)^(x.xi), exact in int64."""
    a = np.asarray(values, dtype=np.int64).reshape(-1).copy()
    n = a.size
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        blocks = a.reshape(-1, 2, h)
        lo, hi = blocks[:, 0, :], blocks[:, 1, :]
        a = np.stack((lo + hi, lo - hi), axis=1).reshape(-1)
        h *= 2
    return a


def xor_counts(a_mask: np.ndarray, b_mask: np.ndarray) -> np.ndarray:
    """c(x) = #{(a, b) in A x B : a xor b = x}, exactly."""
    n = a_mask.size
    prod = wht(a_mask.astype(np.int64)) * wht(b_mask.astype(np.int64))
    back = wht(prod)
    if np.any(back % n):
        raise ArithmeticError("inverse transform not divisible by the group order")
    return back // n


def sumset_size(a_idx, b_idx, t: int) -> int:
    """|A + B| in (Z_2)^t for index arrays A and B."""
    n = 1 << t
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[np.asarray(a_idx, dtype=np.int64)] = 1
    b[np.asarray(b_idx, dtype=np.int64)] = 1
    return int(np.count_nonzero(xor_counts(a, b)))


def linear_bias(idx, t: int) -> Fraction:
    """max over xi != 0 of |1_B^(xi)| with the 1/|G| normalisation, exact."""
    n = 1 << t
    m = np.zeros(n, dtype=np.int64)
    m[np.asarray(idx, dtype=np.int64)] = 1
    w = wht(m)
    return Fraction(int(np.abs(w[1:]).max()), n)
