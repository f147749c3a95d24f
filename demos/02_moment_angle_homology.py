"""Homology of moment-angle complexes from the subset decomposition.

H_p(Z_K) splits as a direct sum over vertex subsets J of the reduced
homology of the full subcomplex K_J, shifted by |J|+1; the real version
R_K shifts by 1.  The examples below recover some familiar manifolds.
"""

from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor.complexes import verts_of

# Two disjoint points: Z_K is the 3-sphere.
print("Z_K for two points:", Ho.zk_homology(C.points(2), H.INTEGERS).totals_rank)

# The 4-cycle: Z_K = S^3 x S^3, so Betti numbers 1,0,0,2,0,0,1.
table = Ho.zk_homology(C.cycle_complex(4), H.RATIONALS)
print("Z_K for the 4-cycle:", table.totals_rank)
print("  contributing subsets:")
for (J, p), (r, t) in sorted(table.entries.items()):
    print(f"    J = {verts_of(J)!s:14} degree {p}: rank {r}")

# Real moment-angle complexes of cycles are closed surfaces: the 4-cycle
# gives the torus, the 5-cycle the genus-5 surface.
print("\nR_K for the 4-cycle:", Ho.rk_homology(C.cycle_complex(4), H.INTEGERS).totals_rank)
print("R_K for the 5-cycle:", Ho.rk_homology(C.cycle_complex(5), H.INTEGERS).totals_rank)

# Torsion is preserved per subset: a projective plane inside the complex
# shows up as 2-torsion in the corresponding degree.
K = C.disjoint_union(C.real_projective_plane(), C.points(1))
table = Ho.zk_homology(K, H.INTEGERS)
print("\ntorsion summands over Z for RP^2 + point:")
for (J, p), (r, t) in sorted(table.entries.items()):
    if t:
        print(f"    J = {verts_of(J)}, degree {p}: torsion {t}")

# The sweep itself is cached for the life of the process.
K = C.random_flag(14, 0.4, 7)
profiles = Ho.subcomplex_profiles(K, H.GF(2))
print(f"\nswept {len(profiles)} subcomplexes of a random flag complex "
      f"(m = {K.m}) over F2")
