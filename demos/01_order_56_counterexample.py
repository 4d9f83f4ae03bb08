"""
The order-56 counterexample
===========================

Among all groups of a fixed order n, the cyclic group C_n maximizes the sum
of element orders.  One might hope the relative version survives: that for a
subgroup H of order m in a group G of order n, the relative order sum
psi_relative(G, H) never exceeds the cyclic reference m * psi(C_{n/m}).
It does not.  The smallest witness in this family is the affine group of
GF(8) -- 56 elements, maps x -> g^k * x + a -- measured against one of its
order-7 complements.
"""

from collections import Counter
from fractions import Fraction

import relpsi as rp

# Build the group.  Elements are pairs (a, k): the translation part a ranges
# over GF(8), the multiplier g^k over the 7 powers of a primitive element.
G = rp.frobenius_field(2, 3)
print(f"group: {G.name}, order {G.order}")

# The complement is the stabilizer of 0: the pure multiplications (0, k).
H = rp.generate(G, [G.encode(0, 1)])
print(f"subgroup: order {H.order}, index {H.index}")

# Brute force: for every x in G, walk x, x^2, x^3, ... until a power lands
# in H, and add up the step counts.
psi_h = rp.psi_relative(G, H)
print(f"psi_relative(G, H) = {psi_h}")

# The cyclic reference for the same (order, index) pair.
reference = rp.cyclic_reference(G.order, H.order)
print(f"cyclic reference 7 * psi(C_8) = {reference}")

ratio = Fraction(psi_h, reference)
assert ratio == Fraction(45, 43)
print(f"ratio = {ratio}  -- strictly above 1, the bound fails")

# The same number drops out of the closed form for the whole family
# GF(2^r) with 2^r - 1 prime, no element enumeration needed.
assert rp.frobenius_ratio_closed_form(3) == ratio
print("closed form agrees:", rp.frobenius_ratio_closed_form(3))

# Where the excess lives: the profile of relative orders across G.  The maps
# with a nontrivial translation part take a long time to fall into H, longer
# on average than the elements of C_56 take to reach its order-7 subgroup.
orders = Counter(rp.relative_orders(G, H).tolist())
print("relative order profile:", dict(sorted(orders.items())))
