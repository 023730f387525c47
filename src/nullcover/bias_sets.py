"""Small-bias complements in Z_m^d and their lifts to boxes and dyadic patches.

Parameter chain: a prime k in [1/eta, 2/eta] (Bertrand), s with
m = 2^{s(k-1)} >= m0, q = m^d = 2^{ds(k-1)}; Fermat's little theorem gives
k | q - 1, so B* = {x^k : x in F_q^*} is defined, has (q-1)/k <= eta*q
elements and linear bias below 1/sqrt(q) in the additive group (Z_2)^{ds(k-1)}.

Every constructed complement ships with an exact certificate.  Two coverage
bounds are recorded for each (A, B) pair:

* the rigorous one, ratio <= 1 + K_B/|A| with K_B = ||B||_u^2 q^3 / |B|^2
  computed as an exact rational (the bias-to-sumset inequality, which cannot
  fail), and
* the headline bound 1 + 1/(4 eta^2 |A|), an often-quoted sharper constant
  that cannot hold in general: |B| <= eta*q already forces K_B >= 1/eta^2 in
  the worst case, and small A violate it at q = 4.  It is checked and
  reported honestly, never assumed.

A patch template (`build_patch_template`, which each stage of the
full-measure cascade builds) works on one dyadic cube in d = 1: the cube
[0, r] is split into m cells, the Gauss complement covers all but an
eps-fraction of the cyclic cell group, and neighbor expansion ({0,-1}) plus
the wrap translates tau*m turn cyclic coverage into interval coverage of
a0 + Q for every sufficiently dense A.  Cell counts make all measure bounds
exact.  Higher d blows past the field cap (q = 2^{ds(k-1)}) and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from nullcover.elementary import box_translates, frac
from nullcover.gf import (
    DEFAULT_FIELD_CAP,
    FieldError,
    coordinate_subset,
    is_prime,
    kth_power_codes,
    make_field,
)
from nullcover.groups import FiniteAbelianGroup, GroupSubset, linear_bias, sumset, sumset_counts


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class PropositionParams:
    """(eta, m0, d) -> (k, s, m, q) with all side conditions verified."""

    eta: Fraction
    m0: int
    d: int
    k: int
    s: int

    def __post_init__(self):
        eta = frac(self.eta)
        if not (0 < eta <= Fraction(1, 3)):
            raise ParameterError(f"eta must lie in (0, 1/3], got {eta}")
        if not is_prime(self.k):
            raise ParameterError(f"k = {self.k} is not prime")
        if not (1 / eta <= self.k <= 2 / eta):
            raise ParameterError(f"k = {self.k} outside [1/eta, 2/eta] = [{1/eta}, {2/eta}]")
        if self.s < 1:
            raise ParameterError("s must be >= 1")
        if self.m < self.m0:
            raise ParameterError(f"m = {self.m} below m0 = {self.m0}")
        # m <= 4^(1/eta) m0 exactly: 2^x <= m0^a with eta = a/b, x = a log2(m) - 2b;
        # 2^(a(l-1)) <= m0^a < 2^(al) for l = bit_length(m0), so the powers are
        # formed only for a(l-1) < x < al
        a, x = eta.numerator, eta.numerator * self.s * (self.k - 1) - 2 * eta.denominator
        bl = self.m0.bit_length()
        if self.m0 < 1 or x > a * (bl - 1) and (x >= a * bl or 1 << x > self.m0**a):
            raise ParameterError("m exceeds 4^(1/eta) * m0")
        if (self.q - 1) % self.k != 0:
            raise ParameterError("k does not divide q - 1")

    @property
    def m(self) -> int:
        return 1 << (self.s * (self.k - 1))

    @property
    def q(self) -> int:
        return 1 << (self.d * self.s * (self.k - 1))

    def to_json_dict(self) -> dict:
        return {
            "eta": str(self.eta),
            "m0": self.m0,
            "d": self.d,
            "k": self.k,
            "s": self.s,
            "m": self.m,
            "q": self.q,
        }


def field_choices(eta: Fraction, m0: int, d: int, cap: int):
    """(k, s) for each prime k in [1/eta, 2/eta] with k - 1 <= floor(log2 cap) / d
    (a larger k has q = 2^{ds(k-1)} > cap for every s), ascending in k, with s
    the least s >= 1 with 2^{s(k-1)} >= m0.  No power of 2 is formed."""
    if cap < 1:
        return
    a, b = eta.numerator, eta.denominator
    hi = min(2 * b // a, (cap.bit_length() - 1) // d + 1)
    bits = max(m0 - 1, 0).bit_length()  # 2^{s(k-1)} >= m0 iff s(k-1) >= bits
    for k in range(-(-b // a), hi + 1):
        if is_prime(k):
            yield k, max(1, -(-bits // (k - 1)))


def select_parameters(eta, m0: int, d: int, cap: int = DEFAULT_FIELD_CAP) -> PropositionParams:
    """Smallest prime k in [1/eta, 2/eta], then smallest s with 2^{s(k-1)} >= m0."""
    eta = frac(eta)
    if not (0 < eta <= Fraction(1, 3)):
        raise ParameterError(f"eta must lie in (0, 1/3], got {eta}")
    if m0 < 1:
        raise ParameterError("m0 must be >= 1")
    if d < 1:
        raise ParameterError("d must be >= 1")
    choice = next(field_choices(eta, m0, d, cap), None)
    if choice is None:
        raise ParameterError(f"q = 2^(d s (k-1)) exceeds cap {cap} for every prime k in [1/eta, 2/eta]; "
                             "the minimal admissible cap is q at the least such k")
    params = PropositionParams(eta=eta, m0=m0, d=d, k=choice[0], s=choice[1])
    if params.q > cap:
        raise ParameterError(
            f"q = 2^{d * params.s * (params.k - 1)} exceeds cap {cap}; minimal admissible cap is {params.q}"
        )
    return params


@dataclass
class BiasComplement:
    """B* = coordinate image of the k-th powers, with exact certificates."""

    params: PropositionParams
    subset: GroupSubset  # over (Z_2)^{d s (k-1)}
    codes: np.ndarray  # sorted field codes of B*
    bias: Fraction  # exact (Walsh-Hadamard) linear bias in the 2-group
    include_zero: bool
    reinterpreted: Optional[GroupSubset] = None  # over Z_m^d when requested
    reinterpreted_bias: Optional[float] = None

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def lemma_constant(self) -> Fraction:
        """K_B = ||B||_u^2 |G|^3 / |B|^2, exact; ratio <= 1 + K_B/|A| always."""
        q = self.params.q
        return self.bias**2 * q**3 / Fraction(self.size**2)

    def certificate(self) -> dict:
        p = self.params
        cert = {
            "schema": "nullcover/1",
            "kind": "bias_complement",
            "params": p.to_json_dict(),
            "size": self.size,
            "size_bound": str(Fraction(p.eta) * p.q),
            "size_ok": self.size <= p.eta * p.q,
            "bias": float(self.bias),
            "bias_bound": float(p.q ** -0.5),
            "bias_ok": self.bias**2 * p.q < 1,
            "lemma_constant": float(self.lemma_constant),
            "include_zero": self.include_zero,
        }
        if self.reinterpreted_bias is not None:
            cert["reinterpreted_bias"] = self.reinterpreted_bias
            cert["reinterpreted_moduli"] = [p.m] * p.d
        return cert


def _codes_to_zmd(params: PropositionParams, codes: np.ndarray) -> GroupSubset:
    """Base-2-digit reinterpretation of (Z_2)^{ds(k-1)} codes into Z_m^d.

    Each block of s(k-1) bits (low bits first) becomes one coordinate in
    [0, m); blocks are ordered first coordinate = lowest bits.
    """
    t = params.s * (params.k - 1)
    group = FiniteAbelianGroup((params.m,) * params.d)
    mask = np.zeros(group.order, dtype=bool)
    blocks = [(codes >> (j * t)) & (params.m - 1) for j in range(params.d)]
    mask[np.ravel_multi_index(blocks, group.moduli)] = True
    return GroupSubset(group, mask)


def build_bias_complement(
    params: PropositionParams,
    include_zero: bool = False,
    reinterpret: bool = False,
    cap: int = DEFAULT_FIELD_CAP,
) -> BiasComplement:
    """Gauss-sum complement over (Z_2)^{ds(k-1)} with exact bias certificate."""
    t = params.d * params.s * (params.k - 1)
    try:
        spec = make_field(2, t, cap=cap)
    except FieldError as exc:
        raise ParameterError(str(exc)) from exc
    codes = kth_power_codes(spec, params.k, include_zero=include_zero)
    subset = coordinate_subset(spec, codes)
    bias = linear_bias(subset)
    comp = BiasComplement(
        params=params, subset=subset, codes=codes, bias=bias, include_zero=include_zero
    )
    if reinterpret:
        comp.reinterpreted = _codes_to_zmd(params, codes)
        comp.reinterpreted_bias = (
            float(linear_bias(comp.reinterpreted)) if comp.reinterpreted.group.order > 1 else 0.0
        )
    if include_zero:
        # |B| = (q-1)/k + 1 and each Fourier coefficient moves by exactly 1/q,
        # so only the perturbed bounds are enforced on this variant.
        if comp.size != (params.q - 1) // params.k + 1:
            raise ParameterError("power set size mismatch")
        if comp.size > params.eta * params.q + 1:
            raise ParameterError("size bound |B| <= eta q + 1 violated")
        return comp
    if comp.size != (params.q - 1) // params.k:
        raise ParameterError("power set size mismatch")
    if comp.size > params.eta * params.q:
        raise ParameterError("size bound |B| <= eta q violated")
    if not (bias**2 * params.q < 1):
        raise ParameterError("bias bound ||B||_u < q^{-1/2} violated")
    return comp


@dataclass
class CoverageCertificate:
    size_a: int
    size_b: int
    sumset_size: int
    group_order: int
    ratio: Fraction
    lemma_bound: Fraction
    headline_bound: Fraction
    lemma_ok: bool
    headline_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": "nullcover/1",
            "kind": "coverage_certificate",
            "size_a": self.size_a,
            "size_b": self.size_b,
            "sumset_size": self.sumset_size,
            "group_order": self.group_order,
            "ratio": float(self.ratio),
            "lemma_bound": float(self.lemma_bound),
            "headline_bound": float(self.headline_bound),
            "lemma_ok": self.lemma_ok,
            "headline_ok": self.headline_ok,
        }


def verify_coverage_bound(A: GroupSubset, B: GroupSubset, eta, bias: Fraction | float | None = None) -> CoverageCertificate:
    """|A+B| against the headline 1 + 1/(4 eta^2 |A|) and the rigorous bound.

    The rigorous bound must pass for any B; the headline bound is reported
    as found.  `bias` may be supplied to skip recomputation.
    """
    eta = frac(eta)
    if A.size == 0:
        raise ParameterError("coverage bound undefined for empty A")
    if B.size == 0:
        raise ParameterError("coverage bound undefined for empty B")
    n = A.group.order
    S = sumset(A, B)
    ratio = Fraction(n, S.size)
    if bias is None:
        bias = linear_bias(B)
    if isinstance(bias, Fraction):
        lemma_bound = 1 + bias**2 * n**3 / Fraction(A.size * B.size**2)
        lemma_ok = ratio <= lemma_bound
    else:
        lemma_bound = Fraction(1) + Fraction(float(bias)) ** 2 * n**3 / Fraction(A.size * B.size**2)
        lemma_ok = float(ratio) <= float(lemma_bound) * (1 + 1e-12)
    headline = 1 + 1 / (4 * eta**2 * A.size)
    return CoverageCertificate(
        size_a=A.size,
        size_b=B.size,
        sumset_size=S.size,
        group_order=n,
        ratio=ratio,
        lemma_bound=lemma_bound,
        headline_bound=headline,
        lemma_ok=lemma_ok,
        headline_ok=ratio <= headline,
    )


# ---------------------------------------------------------------------------
# signed-box lift


@dataclass
class SignedBoxSet:
    """Finite subset of {-m,...,m-1}^d stored as an (N, d) int64 array."""

    d: int
    m: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64).reshape(-1, self.d)
        if pts.size and (pts.min() < -self.m or pts.max() >= self.m):
            raise ParameterError("coordinates outside {-m,...,m-1}")
        order = np.lexsort(pts.T[::-1])
        self.points = pts[order]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def lift_to_signed_box(B: GroupSubset, m: int, d: int) -> SignedBoxSet:
    """Union of translates of B by all vectors with coordinates in {-m, 0}.

    For every A inside [m]^d, the integer sumset A + lift covers within [m]^d
    exactly the residues covered by the cyclic sumset A + B.
    """
    if B.group.moduli != (m,) * d:
        raise ParameterError(f"B must live in Z_{m}^{d}")
    # the translates of B inside [0, m)^d by {-m, 0}^d are disjoint, and
    # SignedBoxSet sorts the rows
    return SignedBoxSet(d=d, m=m, points=box_translates(B.member_array(), (-m, 0), d))


def integer_cover_in_box(A_points: np.ndarray, box: SignedBoxSet, m: int) -> np.ndarray:
    """Boolean mask over [m]^d of integer sums (A + box) landing inside [m]^d."""
    d = box.d
    A_points = np.asarray(A_points, dtype=np.int64).reshape(-1, d)
    sums = (A_points[:, None, :] + box.points[None, :, :]).reshape(-1, d)
    keep = np.all((sums >= 0) & (sums < m), axis=1)
    sums = sums[keep]
    mask = np.zeros(m**d, dtype=bool)
    mask[np.ravel_multi_index(tuple(sums.T), (m,) * d)] = True
    return mask


# ---------------------------------------------------------------------------
# continuous patch complements (d = 1)


def coverage_threshold(lemma_constant: Fraction, eps) -> int:
    """Least N with 1 + K_B/N <= 1/(1-eps): cyclic coverage >= (1-eps) m^d."""
    eps = frac(eps)
    if not (0 < eps < 1):
        raise ParameterError("eps must lie in (0, 1)")
    need = frac(lemma_constant) * (1 - eps) / eps
    n = int(need)
    return n + 1 if need != n else max(n, 1)


# the recorded reference factor C_d 2^d of a patch (d = 1), with C_d = 5^d
SPEC_THRESHOLD_FACTOR = 10


def choose_patch_k(eta_prop: Fraction, min_m: int, cap: int = DEFAULT_FIELD_CAP) -> tuple[int, int]:
    """Prime k in [1/eta_prop, 2/eta_prop] and s minimizing m = 2^{s(k-1)} >= min_m.

    The plain Proposition default takes the smallest prime; here the whole
    admissible range is scanned because a larger k often reaches the required
    capacity with a far smaller field (2^{s(k-1)} jumps in huge steps).
    """
    fits = [(k, s) for k, s in field_choices(frac(eta_prop), min_m, 1, cap) if 1 << s * (k - 1) <= cap]
    if not fits:
        raise ParameterError(
            f"no admissible (k, s) for eta_prop = {eta_prop} with m in [{min_m}, {cap}]"
        )
    return min(fits, key=lambda ks: ks[1] * (ks[0] - 1))


@dataclass
class PatchTemplate:
    """Cell-level complement for one dyadic cube in d = 1.

    Cells are indices at width `side / m` relative to the cube [0, side]; the
    absolute elementary set for a cube with corner c is
    union of [c + i*side/m, c + (i+1)*side/m] over i in `cells`.
    Cyclic coverage: for every A-cell set S in Z_m with |S| >= threshold_nz,
    S + prop_cells covers all but at most eps*m residues; the wrap translates
    in `cells` turn that into interval coverage of a0 + target for every a0.
    """

    eta: Fraction
    eps: Fraction
    params: PropositionParams
    prop_cells: np.ndarray  # sorted Gauss-set codes in [0, m)
    cells: np.ndarray  # sorted final cell indices (neighbor + wrap expanded)
    wraps: tuple[int, ...]
    bias: Fraction
    lemma_constant: Fraction
    threshold_nz: int  # operative |A*| requirement (direct grid construction)
    threshold_spec: int  # reference threshold, SPEC_THRESHOLD_FACTOR * threshold_nz
    budget_cells: int  # allowed cell count

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def cell_count(self) -> int:
        return int(self.cells.size)

    def cyclic_uncovered(self, cell_sets: list[np.ndarray]) -> list[int]:
        """Exact count of residues of Z_m not covered by S + prop_cells, per cell set S.

        One batched `sumset_counts` call: prop_cells is transformed once for all
        the sets, and their rows share packed transform pairs.
        """
        a = np.zeros((len(cell_sets), self.m), dtype=bool)
        for row, cells in zip(a, cell_sets):
            row[np.asarray(cells, dtype=np.int64) % self.m] = True
        b = np.zeros(self.m, dtype=bool)
        b[self.prop_cells] = True
        return [self.m - int(n) for n in np.count_nonzero(sumset_counts(a, b), axis=1)]

    def certificate(self) -> dict:
        return {
            "schema": "nullcover/1",
            "kind": "patch_template",
            "eta": str(self.eta),
            "eps": str(self.eps),
            "params": self.params.to_json_dict(),
            "wraps": list(self.wraps),
            "cell_count": self.cell_count,
            "budget_cells": self.budget_cells,
            "bias": float(self.bias),
            "lemma_constant": float(self.lemma_constant),
            "threshold_nz": self.threshold_nz,
            "threshold_spec_factor": SPEC_THRESHOLD_FACTOR,
            "threshold_spec": self.threshold_spec,
            "log_convention": "natural",
        }


def build_patch_template(
    eta,
    eps,
    wraps: tuple[int, ...],
    min_m: int = 1,
    cap: int = DEFAULT_FIELD_CAP,
) -> PatchTemplate:
    """Gauss-sum patch for one cube: neighbor + wrap expansion of B*.

    `wraps` lists the integer multiples of m that the integer-sum argument
    needs (tau with a_cell + b_cell = target_cell + tau*m); the final cell
    budget is len(wraps) * 2 * eta_prop * m <= eta * m, i.e.
    eta_prop = eta / (2 * len(wraps)).  m is the smallest admissible field
    size >= min_m whose coverage threshold fits in its m cells; when a field
    falls short, the next one starts above it and is recorded as m0.
    """
    eta = frac(eta)
    eps = frac(eps)
    n_wraps = len(wraps)
    eta_prop = eta / (2 * n_wraps)
    if eta_prop > Fraction(1, 3):
        eta_prop = Fraction(1, 3)
    m0 = min_m
    while True:
        k, s = choose_patch_k(eta_prop, m0, cap=cap)
        params = PropositionParams(eta=eta_prop, m0=m0, d=1, k=k, s=s)
        comp = build_bias_complement(params, cap=cap)
        m = params.m
        k_b = comp.lemma_constant
        nz = coverage_threshold(k_b, eps)
        if nz <= m:
            break
        if 2 * m > cap:  # every admissible field above m exceeds the cap
            raise ParameterError(
                f"coverage threshold {nz} exceeds cell capacity m = {m}, "
                f"and no field above m fits the cap {cap}; increase eps"
            )
        m0 = m + 1
    prop_cells = comp.codes  # codes in [0, m) are exactly the cell indices
    # the cells c and c - 1 of each code c; B* holds no zero, so both lie in
    # [0, m) and the wrap translates of them are disjoint
    near = np.zeros(m, dtype=bool)
    near[prop_cells] = near[prop_cells - 1] = True
    nbr = np.flatnonzero(near)
    cells = np.concatenate([nbr + t * m for t in sorted(set(wraps))])
    budget = int(eta * m)
    tpl = PatchTemplate(
        eta=eta,
        eps=eps,
        params=params,
        prop_cells=prop_cells,
        cells=cells,
        wraps=tuple(wraps),
        bias=comp.bias,
        lemma_constant=k_b,
        threshold_nz=nz,
        threshold_spec=SPEC_THRESHOLD_FACTOR * nz,
        budget_cells=budget,
    )
    if tpl.cell_count > budget:
        raise ParameterError(f"template cell count {tpl.cell_count} exceeds budget {budget}")
    return tpl
