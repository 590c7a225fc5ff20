"""Following a degenerate singular point through a deformation.

A deformation family moves a diagonal base structure by parameterized
translations and shears.  The origin is a degenerate singular point of
the base: the bivector and its curl both vanish there, and that
vanishing persists along the curve gamma(t) = phi_t(0), the origin
pushed along the path, which tracking evaluates exactly over Q(i).

Run:  python3 demos/05_deformation_tracking.py
"""

import random

from poissonkit import (DeformationFamily, DiagonalSpec, GaussRational,
                        Polynomial, curl, jet_vanishing, loads,
                        parse_polynomial,
                        scan_degenerate_points, serialize,
                        track_degenerate_point, wedge_power)

base = DiagonalSpec(4, {
    (1, 2): GaussRational(2), (1, 3): GaussRational(3),
    (1, 4): GaussRational(5), (2, 3): GaussRational(7),
    (2, 4): GaussRational(11), (3, 4): GaussRational(13)})

# Push x1 and x3 at constant speeds; the degenerate point of the member
# at time t is then exactly (t/2, 0, -2t, 0).
family = DeformationFamily.build(base, [
    ("translation", "x1", "1/2*t"),
    ("translation", "x3", "-2*t"),
])
print("family bivector at t:")
print("   ", family.bivector())

# The tracked point is exact: t is read as the rational its double is,
# and gamma holds the nearest doubles to the parts of the exact point.
for t in (0.05, -0.1, 0.03 + 0.04j):
    result = track_degenerate_point(family, t)
    pretty = ", ".join(f"{z.real:+.3f}{z.imag:+.3f}i" for z in result.gamma)
    exact = ", ".join(str(z) for z in result.point)
    print(f"t = {t}: gamma = ({pretty})  point = ({exact})")

# The jet certificate: at the tracked point both the structure and its
# linearization vanish, so the square vanishes to order at least 4.
result = track_degenerate_point(family, 0.05)
point = {f"x{k + 1}": result.gamma[k] for k in range(4)}
point["t"] = 0.05
square = wedge_power(family.bivector(), 2)
print("\norder of vanishing of Pi_t at gamma:",
      jet_vanishing(family.bivector(), point, r=3))
print("order of vanishing of Pi_t^2 at gamma:",
      jet_vanishing(square, point, r=3), "(4 means: everything up to r)")

# Degeneracy does not depend on the volume form used for the curl; a
# rescaled volume changes the curl field but not its zeros.  At the
# exact point, with t read exactly from its double, main + correction/u
# is exactly zero.
u = parse_polynomial("1 + x2^2", family.table)
pair = curl(family.bivector(), u)
exact = dict(zip(family.table.coordinates, result.point))
exact["t"] = GaussRational(0.05)
u_value = u.evaluate(exact)
zero = Polynomial.zero(family.table)
values = [pair.main.terms.get(ix, zero).evaluate(exact)
          + pair.correction.terms.get(ix, zero).evaluate(exact) / u_value
          for ix in sorted(set(pair.main.terms) | set(pair.correction.terms))]
print("u at the point:", u_value)
print("curl w.r.t. (1 + x2^2) * volume at the point:",
      [str(v) for v in values])

# A brute-force grid scan of the base member finds the same point.
member = family.at(GaussRational(0))
grid = [GaussRational(-1), GaussRational(0), GaussRational(1)]
hits = scan_degenerate_points(member, grid)
print("\ngrid scan of the t = 0 member:",
      [tuple(str(c) for c in hit) for hit in hits])

# Families serialize to a canonical JSON document, byte-stable under
# round-trips, and every operation above is also exposed through the
# poissonkit command line (parse, track, jet, jacobi, rank, ...).
text = serialize(family)
again = loads(text)
print("\nserialized family round-trips byte-exactly:",
      serialize(again) == text)
print(text[:160] + "...")

# Reproducible randomized self-checks of the algebra laws back all of
# this; the same suites run under `poissonkit selftest`.
from poissonkit.randomized import run_suites  # noqa: E402
for name, cases, failures in run_suites(random.Random(0).randint(1, 99), 25):
    print(f"suite {name:<28} {cases} cases, {failures} failures")
