#!/usr/bin/env python3
"""Randomized covering complements and their continuous lifts.

A uniform random B of density eps covers A + B = Z_N^d for every member of a
family once each member beats the (2/eps) log(|family| N^d) threshold; the
builder verifies exactly and retries.  The same mechanism, run on a dyadic
grid, yields a union of delta-cells B inside [-1,1]^d with A + B covering
the whole unit cube at pixel resolution delta/2.
"""

from fractions import Fraction

import numpy as np

from nullcover import SetFamily, dyadic_cover_complement, random_cover_complement, size_threshold
from nullcover.bias_sets import integer_cover_in_box, lift_to_signed_box
from nullcover.groups import GroupSubset, sumset

rng = np.random.default_rng(7)

# --- cyclic covering in Z_64 -------------------------------------------------

K = size_threshold(0.5, family_size=1, N=64, d=1)
print(f"threshold for one member in Z_64 at eps=1/2: {K:.2f}")

member = rng.choice(64, size=20, replace=False).reshape(-1, 1)
family = SetFamily(d=1, kind="grid", N=64, members=[member])
B, cert = random_cover_complement(family, Fraction(1, 2), seed=7)
print(f"|A| = 20 > {K:.2f}: drew B with |B| = {B.size}, draws = {cert.draws}")

A = GroupSubset.from_members(B.group, [tuple(r) for r in member])
print(f"verified A + B = Z_64 exactly: {sumset(A, B).size == 64}")

# --- signed-box lift ---------------------------------------------------------

box = lift_to_signed_box(B, 64, 1)
covered = integer_cover_in_box(member, box, 64)
print(f"signed-box lift: {box.size} points in {{-64,...,63}}, "
      f"integer sums cover [64): {covered.all()}")

# --- dyadic continuous cover -------------------------------------------------

pts = np.argwhere(rng.random((128, 128)) < 0.85).astype(np.int64)
fam2 = SetFamily(d=2, kind="cube", point_exponent=7, members=[pts])
res = dyadic_cover_complement(fam2, g=6, eps=Fraction(9, 10), seed=3)
c = res.certificate
print(f"\ndyadic cover at delta = 2^-6 in d = 2:")
print(f"  member grid count {c['member_grid_counts'][0]} > threshold {c['threshold_18d']:.1f}")
print(f"  B = {c['cell_count']} cells, measure {Fraction(c['measure'])} <= 9/10")
print(f"  pixel coverage of [0,1]^2 at delta/2 complete: {c['coverage_complete']}")
