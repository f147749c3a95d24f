"""Tor of the loop homology algebra, two independent ways.

For flag K, Tor_n of the Pontryagin algebra of Z_K in multidegree
(-|J|, 2J) is the reduced homology of K_J one degree down; Tor_1 counts
the minimal generators of the algebra and Tor_2 the minimal relations.
The same numbers fall out of the homology of finite slices of a twisted
exterior-coalgebra complex, and the two routes check each other.
"""

from flagtor import complexes as C
from flagtor import homology as H
from flagtor import pontryagin as P
from flagtor.complexes import verts_of

K = C.cycle_complex(4)

# route one is the R_K table of the Hochster decomposition, keyed (J, n)
table = P.tor_via_subcomplexes(K, H.RATIONALS)
print("Tor table of the 4-cycle (via subcomplex homology):")
for n, J, r in sorted((n, J, r) for (J, n), (r, _) in table.entries.items()):
    print(f"  Tor_{n} at J = {verts_of(J)}: rank {r}")

print("\nthe same multidegrees through the slice complex:")
for J in (C.mask_of([1, 3]), C.mask_of([1, 2, 3, 4])):
    beta = tuple((J >> i) & 1 for i in range(K.m))
    print(f"  beta = {beta}:",
          P.tor_via_koszul_complex(K, H.RATIONALS, beta))

# Non-squarefree multidegrees vanish identically.
print("  beta = (2, 0, 0, 0):",
      P.tor_via_koszul_complex(K, H.RATIONALS, (2, 0, 0, 0)), "(empty = zero)")

gens, rels, totals = P.generator_relation_counts(K, H.RATIONALS)
print(f"\nminimal presentation size: {totals['generators']} generators, "
      f"{totals['relations']} relation")

# Coefficients matter: the flag triangulation of the projective plane has
# one relation in characteristic two and none rationally, with the Z
# computation showing the order-two torsion behind it.
rp2f = C.barycentric_subdivision(C.real_projective_plane())
full = rp2f.full_mask
print("\nflag projective plane, top multidegree slice:")
print("  relations over F2:", P.gens_rels_for_subset(rp2f, full, H.GF(2))[1])
print("  relations over Q: ", P.gens_rels_for_subset(rp2f, full, H.RATIONALS)[1])
print("  over Z:           ", P.tor_for_subset(rp2f, full, H.INTEGERS))

# The quadratic dual algebra has a monomial basis of normal words; its
# diagonal dimensions agree with a brute-force cobar computation of Ext.
# The basis comes back as letter tuples, plus a count per exponent vector.
words, counts = P.koszul_dual_basis(K, 2)
print(f"\nnormal words of length 2 in the dual algebra: "
      f"{[''.join(map(str, w)) for w in words]}")
print("Ext at beta = (1,1,0,0):", P.cobar_ext(K, H.RATIONALS, (1, 1, 0, 0)))

# For a non-flag complex, Ext acquires classes off the diagonal, one for
# each higher missing face.
bd = C.simplex_boundary(3)
print("\nempty triangle, Ext at (1,1,1):",
      P.cobar_ext(bd, H.RATIONALS, (1, 1, 1)),
      "(the s=2 class lies off the diagonal s=3)")

mm = P.milnor_moore_check(K, H.RATIONALS)
print("\nloop-homology spectral sequence totals:", mm)
