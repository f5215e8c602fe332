"""Acceptance sweep: one test per shipped guarantee.

Each test is a self-contained statement of a promise the package makes,
sized so the whole file runs in well under a minute on one core.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from monolc import (
    FieldSpec,
    Monomial,
    MultiDegree,
    SimplicialComplex,
    canonical_box,
    cech_dims,
    degree_map,
    depolarize_check,
    depth_and_dim,
    euler_characteristic_reduced,
    is_cone,
    lc_dim,
    lc_dims,
    lc_table,
    minimalize,
    oracle_table,
    parse_ideal,
    polarize_ideal,
    random_ideal,
    reduced_cohomology_dims,
    rho,
    takayama_complex,
    verify_main_theorem,
    verify_reduction_chain,
    verify_reduction_to_degree_zero,
)
from conftest import corpus, golden_ideal

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F32003 = FieldSpec.gf(32003)


def test_criterion_1_two_routes_agree_on_corpus():
    """Simplicial route equals brute-force localization route, exactly,
    for 200 seeded ideals over Q and GF(2)."""
    start = time.monotonic()
    compared = 0
    for ideal in corpus(200):
        for degree in canonical_box(ideal):
            for fld in (Q, F2):
                lhs = lc_dims(ideal, degree, fld)
                rhs = cech_dims(ideal, degree, fld)
                assert lhs == rhs, (ideal, degree, fld, lhs, rhs)
                assert all(0 <= i <= ideal.n for i in rhs)
                compared += 1
    assert compared >= 2000
    assert time.monotonic() - start < 300


def test_criterion_2_main_theorem_three_fields():
    """Every graded piece matches its polarized counterpart at the
    mapped degree and shifted index, over Q, GF(2) and GF(32003)."""
    for ideal in corpus(200):
        for fld in (Q, F2, F32003):
            report = verify_main_theorem(ideal, fld)
            assert report.passed, (ideal, fld, report.to_json_dict())


def test_criterion_3_golden_example_table_and_depth():
    """The box table of (x^2, x*y): the torsion element x shows up in
    degree (1,0) and the k[y] tail in degree (0,-1); both computation
    routes agree that every other box degree, including (-1,-1),
    carries nothing."""
    ideal = golden_ideal()
    expected = {((1, 0), 0): 1, ((0, -1), 1): 1}
    for fld in (Q, F2):
        for table in (lc_table(ideal, fld), oracle_table(ideal, fld)):
            got = {(d.entries, i): dim for d, i, dim in table.entries}
            assert got == expected, (fld, got)

    corner = MultiDegree((-1, -1))
    assert takayama_complex(ideal, corner).is_void
    assert lc_dim(ideal, corner, 1, Q) == 0
    assert cech_dims(ideal, corner, Q).get(1, 0) == 0

    before = depth_and_dim(ideal, Q)
    assert (before.depth, before.dim) == (0, 1)
    polarized = polarize_ideal(ideal)
    after = depth_and_dim(polarized.ideal, Q)
    assert (after.depth, after.dim) == (1, 2)


def test_criterion_4_reduction_chains_complete():
    """On 50 ideals, every single-step identity holds at every box
    degree, and the iterated chain always closes: either at the
    degree-zero comparison against the full polarization, or by a
    verified cone terminal, which certifies the piece was zero all
    along."""
    terminals = {"terminal_polarized_degree_zero": 0, "terminal_cone_vanishing": 0}
    for ideal in corpus(50):
        for degree in canonical_box(ideal):
            step = verify_reduction_chain(ideal, degree, Q)
            assert step.passed, (ideal, degree, step.to_json_dict())
            chain = verify_reduction_to_degree_zero(ideal, degree, Q)
            assert chain.passed, (ideal, degree, chain.to_json_dict())
            last = chain.checks[-1].name
            terminals[last] += 1
            if last == "terminal_cone_vanishing":
                assert lc_dims(ideal, degree, Q) == {}
    assert terminals["terminal_polarized_degree_zero"] > 0
    assert terminals["terminal_cone_vanishing"] > 0


def test_criterion_5_cone_vanishing_outside_box():
    """Degrees with some coordinate at or above its bound never carry
    cohomology: the complex is a cone over that coordinate (or empty
    outright)."""
    rng = random.Random(501)
    for ideal in corpus(50):
        bounds = rho(ideal)
        for _ in range(20):
            entries = [rng.randint(-2, r + 2) for r in bounds]
            pos = rng.randrange(ideal.n)
            entries[pos] = bounds[pos] + rng.randint(0, 2)
            degree = MultiDegree(tuple(entries))
            assert lc_dims(ideal, degree, Q) == {}
            assert lc_dims(ideal, degree, F2) == {}
            cx = takayama_complex(ideal, degree)
            assert cx.is_void or is_cone(cx, pos + 1), (ideal, degree)


RP2_FACETS = [
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
]


def _dense_rank_q(rows: list[list[int]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    rank_count, col = 0, 0
    ncols = len(mat[0]) if mat else 0
    while rank_count < len(mat) and col < ncols:
        pivot = next(
            (r for r in range(rank_count, len(mat)) if mat[r][col]), None
        )
        if pivot is None:
            col += 1
            continue
        mat[rank_count], mat[pivot] = mat[pivot], mat[rank_count]
        lead = mat[rank_count][col]
        for r in range(rank_count + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank_count])]
        rank_count += 1
        col += 1
    return rank_count


def _dense_rank_gf2(rows: list[list[int]]) -> int:
    masks = []
    for row in rows:
        mask = 0
        for j, v in enumerate(row):
            if v % 2:
                mask |= 1 << j
        masks.append(mask)
    rank_count = 0
    for col in range(max((m.bit_length() for m in masks), default=0)):
        bit = 1 << col
        pivot = next(
            (r for r in range(rank_count, len(masks)) if masks[r] & bit), None
        )
        if pivot is None:
            continue
        masks[rank_count], masks[pivot] = masks[pivot], masks[rank_count]
        for r in range(len(masks)):
            if r != rank_count and masks[r] & bit:
                masks[r] ^= masks[rank_count]
        rank_count += 1
    return rank_count


def test_criterion_6_projective_plane_field_dependence():
    """A 6-vertex projective plane separates characteristics: built and
    ranked here from scratch, its middle cohomology is 0 over Q and 1
    over GF(2), and the library reproduces both."""
    faces = {frozenset()}
    for facet in RP2_FACETS:
        for size in range(len(facet) + 1):
            for sub in combinations(facet, size):
                faces.add(frozenset(sub))
    assert len(faces) == 32
    levels = {
        d: sorted(tuple(sorted(f)) for f in faces if len(f) == d + 1)
        for d in range(-1, 3)
    }
    assert [len(levels[d]) for d in range(-1, 3)] == [1, 6, 15, 10]

    def coboundary(d: int) -> list[list[int]]:
        index = {f: j for j, f in enumerate(levels[d])}
        out = [[0] * len(levels[d]) for _ in levels[d + 1]]
        for r, g in enumerate(levels[d + 1]):
            for k, v in enumerate(g):
                f = g[:k] + g[k + 1 :]
                if f in index:
                    out[r][index[f]] = -1 if k % 2 else 1
        return out

    deltas = {d: coboundary(d) for d in range(-1, 2)}
    for d in (-1, 0):
        lower, upper = deltas[d], deltas[d + 1]
        for r in range(len(upper)):
            for c in range(len(lower[0])):
                total = sum(upper[r][m] * lower[m][c] for m in range(len(lower)))
                assert total == 0

    ranks_q = {d: _dense_rank_q(deltas[d]) for d in range(-1, 2)}
    ranks_f2 = {d: _dense_rank_gf2(deltas[d]) for d in range(-1, 2)}
    assert ranks_q == {-1: 1, 0: 5, 1: 10}
    assert ranks_f2 == {-1: 1, 0: 5, 1: 9}

    h1_q = 15 - ranks_q[1] - ranks_q[0]
    h1_f2 = 15 - ranks_f2[1] - ranks_f2[0]
    h2_q = 10 - ranks_q[1]
    h2_f2 = 10 - ranks_f2[1]
    assert (h1_q, h2_q) == (0, 0)
    assert (h1_f2, h2_f2) == (1, 1)

    cx = SimplicialComplex.from_facets(6, RP2_FACETS)
    assert reduced_cohomology_dims(cx, Q) == {}
    assert reduced_cohomology_dims(cx, F2) == {1: 1, 2: 1}

    nonfaces = parse_ideal(
        "vars a b c d e f\n"
        "gens a*b*c, a*b*e, a*c*f, a*d*e, a*d*f, b*c*d, b*d*f, b*e*f,"
        " c*d*e, c*e*f\n"
    )
    dd_q = depth_and_dim(nonfaces, Q)
    dd_f2 = depth_and_dim(nonfaces, F2)
    assert (dd_q.depth, dd_q.dim) == (3, 3)
    assert (dd_f2.depth, dd_f2.dim) == (2, 3)


def test_criterion_7_invariant_suite_thousand_cases():
    """Five structural invariants, 1350 seeded cases, one minute."""
    start = time.monotonic()
    rng = random.Random(2026)
    counts = {
        "minimalize": 0,
        "square_free": 0,
        "round_trip": 0,
        "degree_map_zero": 0,
        "truncation": 0,
        "euler": 0,
    }

    for _ in range(250):
        n = rng.randint(1, 3)
        monomials = [
            Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
            for _ in range(rng.randint(0, 6))
        ]
        reduced = minimalize(monomials)
        assert minimalize(reduced) == reduced
        assert all(any(g.divides(m) for g in reduced) for m in monomials)
        counts["minimalize"] += 1

    for case in range(250):
        ideal = random_ideal(
            rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 4),
            seed=40_000 + case,
        )
        polarized = polarize_ideal(ideal)
        assert all(
            e <= 1 for g in polarized.ideal.gens for e in g.exponents
        )
        counts["square_free"] += 1
        assert depolarize_check(polarized, ideal)
        counts["round_trip"] += 1
        bounds = rho(ideal)
        top = MultiDegree(tuple(r - 1 for r in bounds))
        assert all(e == 0 for e in degree_map(top, bounds).entries)
        counts["degree_map_zero"] += 1

    for case in range(250):
        ideal = random_ideal(
            rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 4),
            seed=80_000 + case,
        )
        bounds = rho(ideal)
        entries = tuple(rng.randint(-1, r - 1) for r in bounds)
        deeper = tuple(
            e if e >= 0 else -rng.randint(1, 9) for e in entries
        )
        assert takayama_complex(ideal, MultiDegree(deeper)) == takayama_complex(
            ideal, MultiDegree(entries)
        )
        counts["truncation"] += 1

    for _ in range(100):
        n = rng.randint(1, 5)
        facets = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            for _ in range(rng.randint(0, 5))
        ]
        cx = SimplicialComplex.from_facets(n, facets)
        dims = reduced_cohomology_dims(cx, Q)
        alternating = sum((-1 if i % 2 else 1) * d for i, d in dims.items())
        assert alternating == euler_characteristic_reduced(cx)
        counts["euler"] += 1

    assert sum(counts.values()) == 1350
    assert all(v >= 100 for v in counts.values())
    assert time.monotonic() - start < 60
