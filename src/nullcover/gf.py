"""GF(p^n) with an explicit irreducible modulus, and k-th power sets.

Elements are polynomial-basis coefficient vectors (c_0,...,c_{n-1}) over Z_p,
equivalently the integer code c_0 + c_1 p + ... + c_{n-1} p^{n-1}.  The
modulus is the lexicographically smallest monic irreducible of degree n:
candidates are scanned in increasing code order of their lower coefficients,
so e.g. GF(16) gets x^4 + x + 1 and every prime field gets modulus x.

For p = 2 the bulk kernel is packed: an element is its uint64 code, bit i
holding c_i, and `packed_mul` multiplies two code arrays carry-less (n
shift/XOR steps, then reduction of the 2n-1-bit product by the modulus from
the top bit down), exact integer XOR throughout; n <= 32 keeps the product
inside 64 bits.  The (N, n) coefficient-array routines (`bulk_mul`,
`bulk_pow`) serve odd p, and are the tests' reference for the packed kernel.
`kth_power_codes` builds power sets without discrete logs, by exponentiating
every element.  For p = 2 that is `packed_pow`: x^k is the product of the
x^(2^j) over the set bits j of k, and each x^(2^j), a GF(2)-linear map, is
one 256-entry table lookup per code byte, so only popcount(k) - 1 general
products remain.  `coordinate_subset` owns the one map from
field codes to the group indices of (Z_p)^n that the bias and sumset kernels
work on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_FIELD_CAP = 1 << 24
PACKED_MAX_DEGREE = 32  # the 2n-1-bit carry-less product must fit in a uint64


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (fine for n <= 2^24)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over Z_p, low coefficient first


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymulmod(a, b, f, p):
    """a*b mod (f, p); f monic."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by monic f
    for deg in range(len(prod) - 1, n - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for i in range(n):
                prod[deg - n + i] = (prod[deg - n + i] - c * f[i]) % p
    return _trim(prod[:max(len(prod), 0)])


def _polypowmod(base, e, f, p):
    result = [1]
    b = list(base)
    while e:
        if e & 1:
            result = _polymulmod(result, b, f, p)
        b = _polymulmod(b, b, f, p)
        e >>= 1
    return result


def _polysub(a, b, p):
    m = max(len(a), len(b))
    a = list(a) + [0] * (m - len(a))
    b = list(b) + [0] * (m - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _polygcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        r = list(a)
        inv_lead = pow(b[-1], p - 2, p)
        while len(r) >= len(b):
            c = (r[-1] * inv_lead) % p
            off = len(r) - len(b)
            for i, bc in enumerate(b):
                r[off + i] = (r[off + i] - c * bc) % p
            _trim(r)
        a, b = b, r
    return a


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Monic polynomial irreducibility over Z_p (x^{p^n} = x test + gcd steps)."""
    f = list(coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise FieldError("modulus must be monic of degree >= 1")
    if n == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    x = [0, 1]
    # x^{p^{n/r}} - x must be coprime with f for every prime r | n
    for r in prime_factors(n):
        h = _polypowmod(x, p ** (n // r), f, p)
        g = _polygcd(f, _polysub(h, x, p), p)
        if len(g) != 1:
            return False
    # and x^{p^n} = x mod f
    h = _polypowmod(x, p**n, f, p)
    return h == x


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^n) with explicit monic irreducible modulus (coefficients c_0..c_n)."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.n

    def to_json_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FieldSpec":
        spec = cls(int(data["p"]), int(data["n"]), tuple(int(c) for c in data["modulus"]))
        if not is_irreducible(list(spec.modulus), spec.p):
            raise FieldError("modulus is not irreducible")
        return spec


def make_field(p: int, n: int, cap: int = DEFAULT_FIELD_CAP) -> FieldSpec:
    """Field with the lex-smallest monic irreducible modulus of degree n."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if n < 1:
        raise FieldError("degree must be >= 1")
    if p**n > cap:
        raise FieldError(f"q = {p}**{n} exceeds cap {cap}")
    return FieldSpec(p, n, _smallest_modulus(p, n))


@functools.cache
def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    """The lex-smallest monic irreducible of degree n over Z_p, found once per
    (p, n): the pure-Python scan costs milliseconds at n = 16."""
    for code in range(p**n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
        candidate = coeffs + [1]
        if is_irreducible(candidate, p):
            return tuple(candidate)
    raise FieldError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# bulk numpy arithmetic on arrays of coefficient vectors


def all_coords(spec: FieldSpec) -> np.ndarray:
    """(q, n) int64 array of all coefficient vectors in code order."""
    q, n, p = spec.q, spec.n, spec.p
    codes = np.arange(q, dtype=np.int64)
    out = np.empty((q, n), dtype=np.int64)
    for i in range(n):
        out[:, i] = codes % p
        codes //= p
    return out


def _reduction_matrix(spec: FieldSpec) -> np.ndarray:
    """Row j = coefficients of x^{n+j} mod modulus, j = 0..n-2."""
    n, p = spec.n, spec.p
    f = list(spec.modulus)
    rows = []
    cur = [(-c) % p for c in f[:n]]  # x^n mod f
    rows.append(list(cur))
    for _ in range(n - 2):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(n):
                cur[i] = (cur[i] - top * f[i]) % p
        rows.append(list(cur))
    if n == 1:
        return np.zeros((0, 1), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def bulk_mul(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise field product of two (N, n) coefficient arrays."""
    n, p = spec.n, spec.p
    N = a.shape[0]
    prod = np.zeros((N, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        ai = a[:, i]
        for j in range(n):
            prod[:, i + j] += ai * b[:, j]
    prod %= p
    if n == 1:
        return prod % p
    red = _reduction_matrix(spec)
    out = (prod[:, :n] + prod[:, n:] @ red) % p
    return out


def bulk_pow(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """Rowwise e-th powers of an (N, n) coefficient array."""
    N = a.shape[0]
    result = np.zeros((N, spec.n), dtype=np.int64)
    result[:, 0] = 1
    base = a.astype(np.int64) % spec.p
    while e:
        if e & 1:
            result = bulk_mul(spec, result, base)
        base = bulk_mul(spec, base, base)
        e >>= 1
    return result


def coords_to_codes(spec: FieldSpec, coords: np.ndarray) -> np.ndarray:
    weights = spec.p ** np.arange(spec.n, dtype=np.int64)
    return coords @ weights


def _packed_modulus(spec: FieldSpec) -> int:
    """The modulus as an integer code (bit i = f_i, bit n set)."""
    if spec.p != 2:
        raise FieldError(f"packed arithmetic needs p = 2, got p = {spec.p}")
    if spec.n > PACKED_MAX_DEGREE:
        raise FieldError(f"packed GF(2^n) needs n <= {PACKED_MAX_DEGREE}, got n = {spec.n}")
    return sum(int(c) << i for i, c in enumerate(spec.modulus))


def packed_mul(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^n) product of two equal-shape uint64 code arrays."""
    n, f = spec.n, _packed_modulus(spec)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    prod = np.zeros(a.shape, dtype=np.uint64)
    bit = np.empty_like(prod)
    term = np.empty_like(prod)
    for i in range(n):  # prod ^= a * x^i wherever c_i(b) = 1
        np.right_shift(b, i, out=bit)
        bit &= 1
        np.left_shift(a, i, out=term)
        term *= bit
        prod ^= term
    for top in range(2 * n - 2, n - 1, -1):  # clear bit `top` with f * x^(top - n)
        np.right_shift(prod, top, out=bit)
        bit &= 1
        bit *= f << (top - n)
        prod ^= bit
    return prod


def packed_pow(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """Elementwise e-th powers of a uint64 code array, as the product over the
    set bits j of e of a^(2^j).  Squaring is GF(2)-linear, so a^(2^j) is the XOR
    over the code's bytes of one 256-entry table each, the table of byte b
    holding (v x^(8 b))^(2^j) for every byte value v (masked to n bits where no
    code reaches, so every entry is a field element); only popcount(e) - 1
    general products remain."""
    a = np.asarray(a, dtype=np.uint64)
    shifts = 8 * np.arange(-(-spec.n // 8), dtype=np.uint64)
    tables = (np.arange(256, dtype=np.uint64) << shifts[:, None]) & np.uint64((1 << spec.n) - 1)
    result, byte = None, np.empty_like(a)
    for j in range(e.bit_length()):
        if j:
            tables = packed_mul(spec, tables, tables)
        if not (e >> j) & 1:
            continue
        power = a
        if j:
            power = np.zeros_like(a)
            for shift, table in zip(shifts.tolist(), tables):
                np.right_shift(a, shift, out=byte)
                byte &= 0xFF
                power ^= table[byte]
        result = power if result is None else packed_mul(spec, result, power)
    return np.ones_like(a) if result is None else result


def kth_power_codes(spec: FieldSpec, k: int, include_zero: bool = False) -> np.ndarray:
    """Sorted unique codes of {x^k : x in F_q^*} (optionally with 0)."""
    if k < 1 or (spec.q - 1) % k != 0:
        raise FieldError(f"k = {k} does not divide q - 1 = {spec.q - 1}")
    if spec.p == 2:
        _packed_modulus(spec)  # reject n > 32 before allocating q codes
        powers = packed_pow(spec, np.arange(1, spec.q, dtype=np.uint64), k)
    else:
        powers = coords_to_codes(spec, bulk_pow(spec, all_coords(spec)[1:], k))
    seen = np.zeros(spec.q, dtype=bool)
    seen[powers] = True
    codes = np.flatnonzero(seen)
    if include_zero:
        codes = np.concatenate(([0], codes))
    return codes


def coordinate_subset(spec: FieldSpec, codes):
    """Coordinate image of field codes as a GroupSubset of (Z_p)^n.

    Group coordinates are the polynomial coefficients (c_0,...,c_{n-1}),
    indexed lexicographically with c_0 most significant: the field code is
    little-endian in p and the group index big-endian, so the index is the
    code with its n base-p digits reversed.
    """
    from nullcover.groups import FiniteAbelianGroup, GroupSubset

    p, n = spec.p, spec.n
    c = np.asarray(codes, dtype=np.int64)
    idx = np.zeros(c.shape, dtype=np.int64)
    if p == 2:  # digit i is bit i; it moves to bit n - 1 - i
        bit = np.empty_like(idx)
        for i in range(n):
            np.right_shift(c, i, out=bit)
            bit &= 1
            bit <<= n - 1 - i
            idx |= bit
    else:
        for _ in range(n):
            idx = idx * p + c % p
            c = c // p
    mask = np.zeros(spec.q, dtype=bool)
    mask[idx] = True
    return GroupSubset(FiniteAbelianGroup((p,) * n), mask)
