"""Discrete Fourier analysis on finite abelian groups Z_{m1} x ... x Z_{mr}.

Conventions (fixed once, used everywhere):

* Elements are coordinate tuples (x_1,...,x_r) with 0 <= x_j < m_j, indexed
  lexicographically; a flat numpy array of length |G| in C order over the
  shape (m_1,...,m_r) realizes exactly that order.
* Forward transform carries the 1/|G| factor:
      fhat(xi) = |G|^{-1} sum_x f(x) exp(-2 pi i xi.x),   xi.x = sum x_j xi_j / m_j.
  The inverse is the bare conjugate character sum (no extra factor), so
  Plancherel reads |G| * ||fhat||_2^2 = ||f||_2^2.
* Convolution is normalized the same way: (f*g)(x) = |G|^{-1} sum_y f(y) g(x-y),
  hence dft(f*g) = dft(f) * dft(g) pointwise.
* For elementary abelian 2-groups (all moduli 2) every computation is done in
  exact integer arithmetic via the Walsh-Hadamard transform; bias values on
  that path are exact `Fraction`s.  The general path is float with error well
  below 1e-9 * |G| at desk sizes.

Sumsets and uncovered counts all come from one kernel, `sumset_counts`:
exact int64 Walsh-Hadamard arithmetic on 2-groups, a rounded real FFT elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{m1} x ... x Z_{mr} with lexicographic element indexing."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.moduli) == 0:
            raise GroupError("group needs at least one cyclic factor")
        if any(int(m) < 1 for m in self.moduli):
            raise GroupError(f"moduli must be >= 1, got {self.moduli}")
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def is_elementary_2(self) -> bool:
        return all(m == 2 for m in self.moduli)

    def elements(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.moduli))

    def index(self, element: Sequence[int]) -> int:
        idx = 0
        for x, m in zip(element, self.moduli):
            idx = idx * m + (x % m)
        return idx

    def element(self, index: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.moduli):
            out.append(index % m)
            index //= m
        return tuple(reversed(out))

    def __str__(self):
        return " x ".join(f"Z{m}" for m in self.moduli)


class GroupFunction:
    """Complex-valued function on a finite abelian group (flat value array)."""

    def __init__(self, group: FiniteAbelianGroup, values):
        values = np.asarray(values, dtype=complex).reshape(-1)
        if values.size != group.order:
            raise GroupError(f"expected {group.order} values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise GroupError("values must be finite")
        self.group = group
        self.values = values

    @classmethod
    def indicator(cls, subset: "GroupSubset") -> "GroupFunction":
        return cls(subset.group, subset.mask.astype(float))

    def __eq__(self, other):
        return (
            isinstance(other, GroupFunction)
            and self.group == other.group
            and np.array_equal(self.values, other.values)
        )

    def allclose(self, other: "GroupFunction", tol: float = 1e-9) -> bool:
        return self.group == other.group and np.allclose(self.values, other.values, atol=tol)


class GroupSubset:
    """Subset of a finite abelian group stored as a boolean mask."""

    def __init__(self, group: FiniteAbelianGroup, mask):
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.size != group.order:
            raise GroupError(f"expected {group.order} mask entries, got {mask.size}")
        self.group = group
        self.mask = mask

    @classmethod
    def from_members(cls, group: FiniteAbelianGroup, members: Iterable[Sequence[int]]) -> "GroupSubset":
        mask = np.zeros(group.order, dtype=bool)
        for mem in members:
            mask[group.index(mem)] = True
        return cls(group, mask)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def members(self) -> list[tuple[int, ...]]:
        """Members as coordinate tuples in lexicographic order."""
        return [self.group.element(int(i)) for i in np.flatnonzero(self.mask)]

    def to_json_dict(self) -> dict:
        return {"moduli": list(self.group.moduli), "members": [list(m) for m in self.members()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupSubset":
        group = FiniteAbelianGroup(tuple(data["moduli"]))
        return cls.from_members(group, data["members"])

    def __contains__(self, element) -> bool:
        return bool(self.mask[self.group.index(element)])

    def __eq__(self, other):
        return (
            isinstance(other, GroupSubset)
            and self.group == other.group
            and np.array_equal(self.mask, other.mask)
        )


def _check_same_group(a, b):
    if a.group != b.group:
        raise GroupError(f"group mismatch: {a.group} vs {b.group}")


def wht_int(values: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform over (Z_2)^r, exact in int64.

    Input length 2^r; output W(xi) = sum_x f(x) (-1)^(x.xi).
    """
    if any(m != 2 for m in moduli):
        raise GroupError("wht_int requires all moduli equal to 2")
    r = len(moduli)
    a = np.array(values, dtype=np.int64).reshape(-1)
    if a.size != 1 << r:
        raise GroupError(f"wht_int needs 2^{r} values, got {a.size}")
    out = np.empty_like(a)
    half = a.size // 2
    for _ in range(r):
        # butterfly on the last axis of (2,)^r, written as the first axis: after
        # r rounds every axis is transformed once and the axis order is back
        lo, hi = a[0::2], a[1::2]
        np.add(lo, hi, out=out[:half])
        np.subtract(lo, hi, out=out[half:])
        a, out = out, a
    return a


def dft(f: GroupFunction) -> GroupFunction:
    """Forward transform with the 1/|G| normalization.

    On elementary abelian 2-groups with integer-valued input, the result comes
    from the exact integer Walsh-Hadamard transform (int / 2^r is exact in
    float64), so the output is bit-reproducible.
    """
    g = f.group
    if g.order == 0:
        raise GroupError("invalid group of order 0")
    shape = g.moduli
    if g.is_elementary_2 and np.all(f.values.imag == 0):
        re = f.values.real
        ints = np.rint(re)
        if np.array_equal(ints, re):
            w = wht_int(ints.astype(np.int64), shape)
            return GroupFunction(g, w.astype(complex) / g.order)
    out = np.fft.fftn(f.values.reshape(shape)).reshape(-1) / g.order
    return GroupFunction(g, out)


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = |G|^{-1} sum_y f(y) g(x-y); exact integer path on 2-groups."""
    _check_same_group(f, g)
    G = f.group
    n = G.order
    if G.is_elementary_2 and np.all(f.values.imag == 0) and np.all(g.values.imag == 0):
        fi, gi = np.rint(f.values.real), np.rint(g.values.real)
        if np.array_equal(fi, f.values.real) and np.array_equal(gi, g.values.real):
            wf = wht_int(fi.astype(np.int64), G.moduli)
            wg = wht_int(gi.astype(np.int64), G.moduli)
            circ = wht_int(wf * wg, G.moduli)  # = n * (plain circular convolution)
            # plain conv values are integers, so circ is divisible by n; n*n
            # division keeps everything exact in float64 (ints / power of two
            # only when n is 2^r, which it is here).
            return GroupFunction(G, circ.astype(complex) / (n * n))
    F = np.fft.fftn(f.values.reshape(G.moduli))
    H = np.fft.fftn(g.values.reshape(G.moduli))
    circ = np.fft.ifftn(F * H).reshape(-1)
    return GroupFunction(G, circ / n)


def linear_bias(B: GroupSubset):
    """max_{xi != 0} |1B^(xi)|: exact Fraction on 2-groups, float otherwise."""
    G = B.group
    if G.order == 1:
        raise GroupError("linear bias undefined on the trivial group (no nonzero frequency)")
    if G.is_elementary_2:
        w = wht_int(B.mask.astype(np.int64), G.moduli)
        return Fraction(int(np.abs(w[1:]).max()), G.order)
    vals = np.fft.fftn(B.mask.astype(float).reshape(G.moduli)).reshape(-1)
    return float(np.abs(vals[1:]).max() / G.order)


def sumset_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 r(x) = #{(s, t) in A x B : s + t = x}, for boolean masks shaped like the group.

    On (Z_2)^r: wht(wht(a) * wht(b)) / 2^r, exact, since every partial sum is at most
    |G| sqrt(|A| |B|) <= |G|^2 < 2^48 (Cauchy-Schwarz, Parseval, |G| <= 2^24).  Elsewhere:
    the rint of the rfftn/irfftn product, each count off by about log2|G| 2^-53 sqrt(|A| |B|),
    far below 1/2, before rounding.
    """
    shape, axes = a.shape, tuple(range(a.ndim))
    if all(m == 2 for m in shape):
        return (wht_int(wht_int(a, shape) * wht_int(b, shape), shape) >> a.ndim).reshape(shape)
    fa, fb = np.fft.rfftn(a, axes=axes), np.fft.rfftn(b, axes=axes)
    return np.rint(np.fft.irfftn(fa * fb, s=shape, axes=axes)).astype(np.int64)


def sumset(A: GroupSubset, B: GroupSubset) -> GroupSubset:
    """A+B, the support of `sumset_counts`."""
    _check_same_group(A, B)
    shape = A.group.moduli
    return GroupSubset(A.group, sumset_counts(A.mask.reshape(shape), B.mask.reshape(shape)) > 0)
