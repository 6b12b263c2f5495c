"""
Three routes to one verdict
===========================

Each trinomial family x^u + x^v - x^w over GF(3^2k) can be tested for
bijectivity three ways:

  1. directly, by evaluating the map on every field element;
  2. through the index form x^r h(x^(q-1)) and the subgroup criterion
     (gcd condition + a bijection check on mu_{q+1} only);
  3. through the closed-form rational map g on mu_{q+1} that the reduced
     index form collapses to.

They must agree row for row.  Routes 2 and 3 are the reason any of this
scales: mu_{q+1} has q+1 elements while the field has q^2.
"""

from trinolab import (ctx_create, fractional_map, g_permutes_mu, mu_enumerate,
                      trinomial_decompose, trinomial_family)
from trinolab.conjlab import sweep

ctx = ctx_create(1)
spec = trinomial_family(2, 1, ctx)
print(f"family 2, l=1, k=1: exponents {spec.exponents}, "
      f"signs {spec.signs}, gcd_ok={spec.gcd_ok}")

r, h = trinomial_decompose(spec, ctx)
print(f"index form: x^{r} * h(x^{ctx.q - 1}) with h = {h.to_text()}")

# on mu_{q+1} the reduced map x^r h(x)^(q-1) equals the rational map g
g = fractional_map(2, ctx)
print(f"g = ({g.numerator.to_text()}) / ({g.denominator.to_text()})")
for x in sorted(mu_enumerate(ctx, ctx.q + 1)):
    reduced = ctx.mul(ctx.pow(x, r), ctx.pow(h.eval(x), ctx.q - 1))
    print(f"  x={x}: reduced={reduced}  g(x)={g.eval(x)}")

print(f"\ng permutes mu_4: {g_permutes_mu(2, ctx).is_bijection}")

# a sweep bundles all three routes per row; watch family 3 fail precisely
# at k = 2 (and only there): k = 2 mod 4 really is different
print("\nfamily 3 across k (l = 2):")
print("  k  gcd_ok direct zieve1 zieve2 g_bij  max_fiber")
for row in sweep(3, [1, 2, 3, 4], [2]).rows:
    z1, z2 = row.zieve_cond1, row.zieve_cond2
    print(f"  {row.k}  {row.gcd_ok!s:6} {row.direct_bijection!s:6} "
          f"{z1!s:6} {z2!s:6} {row.g_bijection!s:6} {row.max_fiber_size}")

# family 1 permutes exactly at even k; odd k is out of range for the claim
# and the data shows why it has to be
print("\nfamily 1 across k (l = 1):")
for row in sweep(1, [1, 2, 3, 4], [1]).rows:
    print(f"  k={row.k}: direct={row.direct_bijection}  "
          f"g={row.g_bijection}  max_fiber={row.max_fiber_size}")
