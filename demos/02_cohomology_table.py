"""The graded local cohomology table of S/I for I = (x^2, x*y).

Every graded piece of H^i_m(S/I) is the reduced cohomology of a small
simplicial complex attached to the degree, and the finitely many degrees
in the canonical box determine all the rest.
"""

from monolc import (
    FieldSpec,
    canonical_box,
    depth_and_dim,
    format_complex,
    lc_table,
    parse_ideal,
    takayama_complex,
)

ideal = parse_ideal("vars x y\ngens x^2, x*y")
field = FieldSpec.rationals()

print("complexes over the canonical box:")
for degree in canonical_box(ideal):
    cx = takayama_complex(ideal, degree)
    print(f"  a={degree.entries}: {format_complex(cx, ideal.var_names)}")

table = lc_table(ideal, field)
print("\nnonzero graded pieces:")
print(table.to_tsv(), end="")

# the quotient has the torsion element x and a polynomial tail k[y],
# so cohomology lives in indices 0 and 1 only
dd = depth_and_dim(ideal, field)
print(f"\ndepth {dd.depth}, dim {dd.dim}, cohen_macaulay {dd.is_cohen_macaulay}")
assert (dd.depth, dd.dim) == (0, 1)
