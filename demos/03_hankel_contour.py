"""The circle + ray decomposition of the Hankel-contour regulator.

For h = 1 the two pieces are elementary and cancel, recovering the pure
zeta values; for other Hankel-type generators their difference is the
correction term.  The assembled value is independent of the circle
radius rho, which is a strong internal consistency check.
"""

from zetareg import (
    circle_integral,
    make_generator,
    ray_integral,
    regulator_circle_ray,
    rgamma,
    validate_hankel,
    zeta_c,
)

riemann = make_generator([1], name="riemann")
cubic = make_generator([1, 0, 3], name="cubic")
linear = make_generator([1, 2], name="linear")

print("Hankel validation (-Phi(-x) positive and increasing), decided exactly:")
for g in (riemann, cubic, linear):
    print(f"  {g.name:8s} {'passes' if validate_hankel(g) else 'FAILS'}")

print()
print("h = 1, rho = 1/4: circle and ray terms cancel exactly:")
rho = 0.25
for a in (0.5, 1.7):
    c = circle_integral(riemann, a)
    r = ray_integral(riemann, a)
    want = rgamma(complex(-a)) / (rho ** (1 + a) * (1 + a))
    print(f"  alpha = {a}: circle = {c.real:+.12f}, ray = {r.real:+.12f}, "
          f"closed form = {want.real:+.12f}")
    R = regulator_circle_ray(riemann, a)
    print(f"             R = {R.total.real:+.12f} vs zeta(-alpha) = {zeta_c(-a).real:+.12f}")

print()
print("rho-invariance for the cubic generator:")
for a in (0.5, 2.5):
    r2 = regulator_circle_ray(cubic, a, rho=0.2).total
    r3 = regulator_circle_ray(cubic, a, rho=0.3).total
    print(f"  alpha = {a}: |R(rho=0.2) - R(rho=0.3)| = {abs(r2 - r3):.2e}")

print()
print("At integer alpha the ray term vanishes identically (1/Gamma(-m) = 0)")
print("and the circle term is the exact rational correction:")
for m in (1, 3):
    c = circle_integral(cubic, float(m))
    r = ray_integral(cubic, float(m))
    print(f"  m = {m}: circle = {c.real:+.12f}, ray = {r}")
