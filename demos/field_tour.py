"""
A tour of the characteristic-3 field engine
===========================================

Builds GF(9) and GF(81), pokes at the encoding, and shows where the
distinguished constants (the fourth root of unity and the root of
X^3 - X - 1) live.
"""

from trinolab import ctx_create, mu_enumerate

# every element is an integer: the base-3 value of its coefficient vector,
# low degree first, so 0, 1, 2 are the prime subfield and 2 means -1
ctx = ctx_create(1)
print(f"GF(3^{ctx.m}) with modulus {ctx.modulus} (low degree first)")
print(f"alpha = {ctx.alpha} generates the {ctx.order - 1} nonzero elements")

# addition and multiplication run on packed trit vectors, and they agree
# with plain polynomial arithmetic mod the modulus
x = 3                       # the polynomial "x"
print(f"x * x = {ctx.mul(x, x)}   (x^2 = -1 mod x^2 + 1)")
print(f"x + 1 = {ctx.add(x, 1)}")
print(f"1 / x = {ctx.inv(x)}")

# compound expressions are nested ctx calls on encodings
a = ctx.alpha
print(f"alpha^2 + alpha = {ctx.add(ctx.mul(a, a), a)}")

# mu_d: the d-th roots of unity; mu_{q+1} is the stage for everything else
mu = mu_enumerate(ctx, ctx.q + 1)
print(f"mu_{ctx.q + 1} = {sorted(mu)}")
prod = 1
for e in mu:
    prod = ctx.mul(prod, e)
print(f"product over mu_4 = {prod}  (-1: the order-2 element survives)")

# epsilon: a square root of -1, present in every GF(3^2k)
for k in (1, 2, 3):
    ctx = ctx_create(k)
    sc = ctx.special_constants()
    eps = sc.epsilon
    assert ctx.mul(eps, eps) == 2
    print(f"k={k}: epsilon = {eps:4d}  epsilon^2 = {ctx.mul(eps, eps)} "
          f"(encoding of -1)")

# theta: a root of X^3 - X - 1; it needs a subfield GF(27), so it appears
# exactly when 3 | k, and then theta^13 = 1
ctx = ctx_create(3)
sc = ctx.special_constants()
print(f"k=3: theta = {sc.theta}, theta^13 = {ctx.pow(sc.theta, 13)}")
conjugates = tuple(ctx.frobenius(sc.theta, i) for i in range(3))
print(f"     conjugates {conjugates} (orbit under the cube map)")
print(f"k=2: theta = {ctx_create(2).special_constants().theta}")

# square roots read off the log table: alpha^L is a square iff L is even,
# with roots +-alpha^(L/2); the smaller encoding is returned
ctx = ctx_create(2)
for enc in (2, 15, 14):
    r = ctx.sqrt(enc)
    if r is None:
        print(f"sqrt({enc}) : not a square")
    else:
        print(f"sqrt({enc}) = {r}, check {ctx.mul(r, r)} == {enc}")
