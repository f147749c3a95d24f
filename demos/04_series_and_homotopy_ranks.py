"""Poincare series, rational homotopy ranks, and their round trips.

For flag K the loop homology series of Z_K is the inverse of the
polynomial -sum_J chi~(K_J) x^J.  Taking its logarithm and applying
Moebius inversion yields the ranks of the rational homotopy groups,
and the Poincare-Birkhoff-Witt product over those ranks rebuilds the
series exactly.
"""

from flagtor import complexes as C
from flagtor import pontryagin as P
from flagtor import series as S

K = C.cycle_complex(4)

D = S.euler_denominator(K, 8)
print("denominator terms:", dict(sorted(D.terms.items())))

F = S.poincare_ozk(K, 8)
print("series, collapsed to the total grading:", F.z_graded())
print("(these are the coefficients of 1/(1-t^2)^2)")

ok, lhs, rhs = S.panov_ray_check(K)
print("\nh-vector identity: (1+t)^{m-n} sum h_i(-t)^i =", lhs,
      "= -sum chi~ t^|J| =", rhs, "->", ok)

ranks = S.homotopy_ranks(K, 8)
print("\nhomotopy ranks:", dict(ranks))
print("(Z_K = S^3 x S^3: two spherical generators, nothing else rationally)")
print("PBW product rebuilds the series:",
      S.pbw_reconstruct(ranks, K.m, 8) == F)

# The compositional formula gives the same numbers for gcd-one
# multidegrees, and is non-negative for every flag complex.
for alpha in ((1, 0, 1, 0), (1, 1, 1, 1)):
    val, nonneg = S.chi_inequality(K, alpha)
    print(f"compositional value at {alpha}: {val} (>= 0: {nonneg})")

# The ambient polyhedral-product space has loop homology the quadratic
# dual algebra; its series coefficients count normal words.
odj = S.poincare_odj(K, 6)
counts = P.normal_word_counts(K, 6)
print("\nambient loop series, total grading:", odj.z_graded())
print("normal-word counts agree per multidegree:",
      all(odj.coefficient(a) == c for a, c in counts.items()))

# A bigger example: everything stays exact over a random flag complex.
# Both calls read the same chi~ table, which is kept for the last complex.
K = C.random_flag(8, 0.35, 1)
F = S.poincare_ozk(K, 8)
ranks = S.homotopy_ranks(K, 8)
print(f"\nrandom flag complex on 8 vertices: {len(ranks)} nonzero ranks, "
      f"PBW round trip: {S.pbw_reconstruct(ranks, K.m, 8) == F}")
