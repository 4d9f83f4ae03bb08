"""
Order-divisibility bijections and their failure certificates
============================================================

When psi_relative(G, H) <= m * psi(C_{n/m}) holds with room to spare, one can
often say more: there is a bijection f from G to C_n such that the relative
order of f(x) (against the order-m subgroup of C_n) is a multiple of the
relative order of x.  ``bijection_exists`` decides this with a max-flow
computation over relative-order multiplicities and returns either an explicit
bijection or a Hall-type deficiency certificate.
"""

import relpsi as rp

# Positive case: S4 against the trivial subgroup.  A witness bijection comes
# back; verify the divisibility property element by element.
G = rp.symmetric(4)
H = rp.generate(G, [])
res = rp.bijection_exists(G, H)
assert res.exists
print(f"{G.name}: bijection exists")
from math import gcd
relative = rp.relative_orders(G, H)
for x in G.elements():
    left = relative[x]
    right = G.order // gcd(G.order, res.witness[x])
    assert right % left == 0
print("witness checked: every image order is a multiple of the source order")

# Negative case: the order-56 group against its complement.  The certificate
# is a set of relative-order values whose elements have nowhere to go.
G = rp.frobenius_field(2, 3)
H = rp.generate(G, [G.encode(0, 1)])
res = rp.bijection_exists(G, H)
assert not res.exists
print(f"\n{G.name} vs its order-7 complement: no bijection")
print(f"stuck values: {res.deficient_values}")
print(f"reachable on the cyclic side: {res.neighborhood_values}")
print(f"deficiency: {res.deficiency()}")
# 42 elements have relative order 7, but no relative order in C_56 over its
# order-7 subgroup is divisible by 7 -- the neighborhood is empty.

# The connection to the ratio: whenever the ratio exceeds 1 the bijection is
# impossible, since a bijection would force psi_relative(G, H) <= reference.
assert rp.psi_ratio(G, H) > 1
print("\nratio > 1, so the non-existence was forced")
