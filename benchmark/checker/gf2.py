"""GF(2^t) arithmetic for the checker, written apart from the package.

A field element is an integer whose bit i is the coefficient of x^i.  The
modulus is the lexicographically smallest irreducible of degree t: the
candidates x^t + c are scanned in increasing order of c, and each one is
tested by trial division by every polynomial of degree 1..t/2.
"""

from __future__ import annotations

import numpy as np


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mod(a: int, f: int) -> int:
    """Remainder of a modulo f over GF(2)."""
    df = f.bit_length() - 1
    while a and a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def is_irreducible(f: int) -> bool:
    """True when f (degree >= 1) has no factor of degree 1..deg(f)/2."""
    t = f.bit_length() - 1
    if t < 1:
        return False
    for g in range(2, 1 << (t // 2 + 1)):
        if poly_mod(f, g) == 0:
            return False
    return True


def smallest_irreducible(t: int) -> int:
    """Lex-smallest irreducible x^t + c, c scanned upward from 0."""
    for c in range(1 << t):
        f = (1 << t) | c
        if is_irreducible(f):
            return f
    raise ValueError(f"no irreducible polynomial of degree {t}")


def mul_vec(a: np.ndarray, b: np.ndarray, f: int, t: int) -> np.ndarray:
    """Elementwise field product of two uint64 arrays of elements below 2^t."""
    acc = np.zeros_like(a)
    for i in range(t):
        acc ^= np.where((b >> np.uint64(i)) & np.uint64(1), a << np.uint64(i), np.uint64(0))
    for deg in range(2 * t - 2, t - 1, -1):
        hit = (acc >> np.uint64(deg)) & np.uint64(1)
        acc ^= np.where(hit, np.uint64(f << (deg - t)), np.uint64(0))
    return acc


def kth_powers(t: int, k: int) -> np.ndarray:
    """Sorted distinct codes of {x^k : x in GF(2^t)^*}."""
    f = smallest_irreducible(t)
    base = np.arange(1, 1 << t, dtype=np.uint64)
    result = np.ones_like(base)
    e = k
    while e:
        if e & 1:
            result = mul_vec(result, base, f, t)
        base = mul_vec(base, base, f, t)
        e >>= 1
    return np.unique(result).astype(np.int64)


def bit_reverse(codes: np.ndarray, t: int) -> np.ndarray:
    """Group index of each field code in (Z_2)^t, first coordinate c_0 most
    significant (the coordinate order of the package's 2-groups)."""
    out = np.zeros_like(codes)
    c = codes.copy()
    for _ in range(t):
        out = (out << 1) | (c & 1)
        c >>= 1
    return out
