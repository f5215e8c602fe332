"""Two independent computations of every graded piece.

The primary route builds a simplicial complex per degree and takes its
reduced cohomology.  The oracle route never sees a complex: it builds
the degree strand of the Cech complex on all n variables directly from
the generator exponents and ranks its differentials.  The routes share
only the ideal types and linalg (the exact rank kernel and the coboundary
assembly, which the tests check against its definition), so exact
agreement on random input is strong evidence for both.
"""

from monolc import FieldSpec, canonical_box, cech_dims, lc_dims, random_ideal

field = FieldSpec.gf(2)
checked = 0
for seed in range(40):
    ideal = random_ideal(n=3, max_exp=3, max_gens=4, seed=seed)
    for degree in canonical_box(ideal):
        via_complex = lc_dims(ideal, degree, field)
        via_strand = cech_dims(ideal, degree, field)
        assert via_complex == via_strand, (ideal, degree)
        checked += 1

print(f"{checked} graded pieces across 40 random ideals: routes agree")
