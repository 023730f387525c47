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
Its first argument may stack several sets A along a leading axis against one B,
whose transform is then computed once for all of them; on the FFT branch the
batch rows also share transform pairs, several rows packed as the base-2^w
digits of one real signal.

A `GroupSubset` is immutable: it keeps a read-only copy of its mask, and on
(Z_2)^r it computes its exact spectrum once, on first use.  `linear_bias` and
`sumset` both read that spectrum, so a fixed set B certified against many sets A
is transformed once.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    """Subset of a finite abelian group stored as a read-only boolean mask.

    The mask is a copy of the one given, so the subset never changes; its size and,
    on (Z_2)^r, its spectrum are computed on first use and kept.
    """

    def __init__(self, group: FiniteAbelianGroup, mask):
        mask = np.array(mask, dtype=bool).reshape(-1)
        if mask.size != group.order:
            raise GroupError(f"expected {group.order} mask entries, got {mask.size}")
        mask.setflags(write=False)
        self.group = group
        self.mask = mask

    @classmethod
    def from_members(cls, group: FiniteAbelianGroup, members: Iterable[Sequence[int]]) -> "GroupSubset":
        mask = np.zeros(group.order, dtype=bool)
        for mem in members:
            mask[group.index(mem)] = True
        return cls(group, mask)

    @functools.cached_property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """W(xi) = sum_{x in B} (-1)^(x.xi) on (Z_2)^r, read-only; int32 is exact, as
        |W| <= |B| <= |G| and the exact kernels take |G| <= 2^24."""
        w = wht_int(self.mask, self.group.moduli).astype(np.int32)
        w.setflags(write=False)
        return w

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
    return _butterflies(a)


def _butterflies(a: np.ndarray) -> np.ndarray:
    """The unnormalized WHT of a 1-d int64 array of length 2^r that the caller
    owns, computed in a and one scratch array of its size; returns whichever
    of the two holds the result."""
    out = np.empty_like(a)
    half = a.size // 2
    for _ in range(a.size.bit_length() - 1):
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
        return Fraction(int(np.abs(B.spectrum[1:]).max()), G.order)
    vals = np.fft.fftn(B.mask.astype(float).reshape(G.moduli)).reshape(-1)
    return float(np.abs(vals[1:]).max() / G.order)


# a packed count is exact while its round-off stays below 1/2; packs keep it far lower
PACK_ROUNDOFF = 2.0**-8
PACK_BITS = 52  # a packed count below 2^52 is an exact float64


def sumset_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 r(x) = #{(s, t) in A x B : s + t = x}, for boolean masks shaped like the group.

    `a` may carry one leading batch axis, one member A per row; B is transformed once
    and the result has a's shape.  On (Z_2)^r each row is a pack of its own:
    wht(wht(a) * wht(b)) / 2^r, exact, since every partial sum is at most
    |G| sqrt(|A| |B|) <= |G|^2 < 2^48 (Cauchy-Schwarz, Parseval, |G| <= 2^24);
    `sumset` runs the same count step on a `GroupSubset`'s kept spectrum.

    Elsewhere P rows share one rfftn/irfftn pair as the base-2^w digits of one real
    signal f = sum_j 2^(w j) 1_{A_j}, w = bit_length(min(|B|, max_j |A_j|)), so every
    count fits in its w-bit digit, and the digits are read back by shift and mask from
    the rint of f * 1_B.  With the FFT's relative 2-norm error at most 6 log2|G| 2^-53
    per transform (Higham, Accuracy and Stability of Numerical Algorithms, ch. 24),
    the two forward transforms, the product and the inverse leave every packed value
    within 20 log2|G| 2^-53 ||f||_2 ||1_B||_2, with ||f||_2^2 <= (4/3) 4^(w (P-1))
    max_j |A_j|.  P is the largest pack with w P <= 52 whose bound is at most 2^-8,
    and a batch asserts its bound.  P = 1 is one row per transform pair, as is an
    `a` without a batch axis; the bound of one row holds for every |G| <= 2^34.
    """
    shape, axes = b.shape, tuple(range(b.ndim))
    pack, w = 1, 0
    if all(m == 2 for m in shape):
        wb = wht_int(b, shape)

        def counts(row):
            return _wht_counts(row, wb, shape) >> b.ndim
    else:
        fb = np.fft.rfftn(b, axes=axes)

        def counts(f):
            # each |G|-sized temporary is dropped once read, so a packed signal
            # costs no more peak memory than a single row
            spec = np.fft.rfftn(f, axes=axes)
            del f
            spec *= fb
            prod = np.fft.irfftn(spec, s=shape, axes=axes)
            del spec
            return np.rint(prod, out=prod).astype(np.int64)
        if a.ndim > b.ndim:
            size_a = int(np.count_nonzero(a, axis=tuple(range(1, a.ndim))).max(initial=0))
            size_b = int(np.count_nonzero(b))
            w = max(min(size_a, size_b).bit_length(), 1)
            # the round-off bound of a pack of one row, times 2^(w (P - 1)) for P rows
            one = 20 * b.size.bit_length() * 2.0**-53 * math.sqrt(4 / 3 * size_a * size_b)
            while pack < len(a) and w * (pack + 1) <= PACK_BITS and one * 2.0 ** (w * pack) <= PACK_ROUNDOFF:
                pack += 1
            assert one * 2.0 ** (w * (pack - 1)) <= PACK_ROUNDOFF, "sumset_counts: FFT round-off bound"
    if a.ndim == b.ndim:
        return counts(a)
    out = None  # allocated once the first pack's temporaries are freed
    digit, weights = (1 << w) - 1, 2.0 ** (w * np.arange(pack))
    for i in range(0, len(a), pack):
        group = a[i:i + pack]
        packed = counts(group[0] if len(group) == 1 else np.tensordot(weights[:len(group)], group, axes=1))
        if out is None:
            out = np.empty(a.shape, dtype=np.int64)
        if len(group) == 1:
            out[i] = packed
            continue
        for j in range(len(group)):
            np.bitwise_and(packed >> (w * j), digit, out=out[i + j])
    return np.empty(a.shape, dtype=np.int64) if out is None else out


def _wht_counts(a: np.ndarray, wb: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """2^r r(x) = wht(wht(a) * W_B)(x) on (Z_2)^r, for a set a and the transform W_B of B.
    The product is this function's own, so the second transform runs on it in place."""
    wa = wht_int(a, shape)
    wa *= wb
    return _butterflies(wa).reshape(shape)


def sumset(A: GroupSubset, B: GroupSubset) -> GroupSubset:
    """A+B, the support of `sumset_counts`; on (Z_2)^r it reads B's kept spectrum."""
    _check_same_group(A, B)
    shape = A.group.moduli
    if A.group.is_elementary_2:
        return GroupSubset(A.group, _wht_counts(A.mask, B.spectrum, shape) > 0)
    return GroupSubset(A.group, sumset_counts(A.mask.reshape(shape), B.mask.reshape(shape)) > 0)
