"""Diagonal Poisson structures, their Pfaffians, and the log form.

A diagonal structure on n coordinates is built from a strictly upper
triangular table of coefficients lambda_ij.  These structures satisfy
the Jacobi identity automatically, which the first block checks with
fully symbolic coefficients.

Run:  python3 demos/02_diagonal_structures.py
"""

import random
from math import factorial

from poissonkit import (DiagonalSpec, GaussRational, check_multiplicity,
                        contract, curl, curl_eigenvalues, is_generic,
                        jacobi_check, log_annihilator, make_diagonal,
                        parse_polynomial, pfaffian, random_generic_spec,
                        wedge_power)

# Symbolic coefficients: Jacobi holds identically in the l_ij.
sym = DiagonalSpec.symbolic(4)
ps = make_diagonal(sym)
print("symbolic n=4 bivector:")
print("   ", ps.bivector)
print("jacobi_check:", jacobi_check(ps))

# A concrete structure with prime coefficients.
primes = DiagonalSpec(4, {
    (1, 2): GaussRational(2), (1, 3): GaussRational(3),
    (1, 4): GaussRational(5), (2, 3): GaussRational(7),
    (2, 4): GaussRational(11), (3, 4): GaussRational(13)})
concrete = make_diagonal(primes)
print("\nprime-coefficient n=4 structure is generic:", is_generic(primes))

# On 2m coordinates the m-th wedge power collapses to a single top term
# whose scalar is m! times the Pfaffian of the coefficient matrix.
T = concrete.table
top = wedge_power(concrete.bivector, 2)
pf = pfaffian([[primes.entry_scalar(i, j) for j in range(1, 5)]
               for i in range(1, 5)])
print("Pi^2 =", top)
print("2! * Pf =", GaussRational(factorial(2)) * pf,
      " (matches the top coefficient up to x1*x2*x3*x4)")

# The curl of a diagonal structure is again diagonal: mu_i x_i d/dx_i,
# and the eigenvalues always sum to zero.
mu = curl_eigenvalues(primes)
print("\ncurl(Pi) =", curl(concrete.bivector))
print("mu =", [str(m) for m in mu])

# On an odd number of coordinates a generic structure is annihilated by
# a logarithmic 1-form whose residues are fixed up to scale.
odd = DiagonalSpec(3, {(1, 2): GaussRational(2),
                       (1, 3): GaussRational(3),
                       (2, 3): GaussRational(5)})
form = log_annihilator(odd)
odd_ps = make_diagonal(odd)
print("\nn=3 log form residues:", [str(r) for r in form.residues])
print("cleared numerator kills Pi:",
      contract(form.cleared_form(), odd_ps.bivector).is_zero())

# Square-free monomials are the ones whose every exponent is 1; the
# multiplicity test certifies this degree by degree.
cubic = parse_polynomial("x1*x2*x3", odd.table())
print("x1*x2*x3 has simple zeros along each axis:",
      check_multiplicity(cubic, 2))

# Random generic specimens for experiments, reproducible by seed.
rng = random.Random(7)
sample = random_generic_spec(5, rng, bound=30)
print("\nrandom generic n=5 spec entries:",
      {pair: str(v) for pair, v in sorted(sample.entries.items())})
