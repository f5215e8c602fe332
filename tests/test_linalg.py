import math
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from monolc import FieldSpec, SparseMatrix, rank
from monolc.linalg import _coboundaries, _cohomology, _is_prime
from conftest import transposed

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
BIGP = FieldSpec.gf(32003)


def dense_rank_oracle(data, p=None):
    """Plain dense Gaussian elimination over Fraction or GF(p); written
    independently of the sparse kernel to cross-check it."""
    rows = [list(map(Fraction, r)) for r in data] if p is None else [
        [int(x) % p for x in r] for r in data
    ]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rk = 0
    for col in range(ncols):
        piv = None
        for r in range(rk, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        pivval = rows[rk][col]
        inv = (1 / pivval) if p is None else pow(pivval, -1, p)
        for r in range(len(rows)):
            if r == rk or rows[r][col] == 0:
                continue
            factor = rows[r][col] * inv
            for c in range(ncols):
                if p is None:
                    rows[r][c] -= factor * rows[rk][c]
                else:
                    rows[r][c] = (rows[r][c] - factor * rows[rk][c]) % p
        rk += 1
        if rk == len(rows):
            break
    return rk


def minor_rank_oracle(data):
    """Largest size of a nonsingular square submatrix, by enumeration."""

    def det(rs, cs):
        if len(rs) == 1:
            return Fraction(data[rs[0]][cs[0]])
        total = Fraction(0)
        for k, r in enumerate(rs):
            v = Fraction(data[r][cs[0]])
            if v:
                sign = -1 if k % 2 else 1
                total += sign * v * det(rs[:k] + rs[k + 1 :], cs[1:])
        return total

    nr, nc = len(data), len(data[0]) if data else 0
    for size in range(min(nr, nc), 0, -1):
        for rs in combinations(range(nr), size):
            for cs in combinations(range(nc), size):
                if det(list(rs), list(cs)) != 0:
                    return size
    return 0


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("q") == Q
        assert FieldSpec.parse("Q") == Q
        assert FieldSpec.parse("gf:2") == F2
        assert FieldSpec.parse("gf:32003") == BIGP

    def test_parse_rejects(self):
        too_long = "gf:" + "7" * 5000  # past int()'s digit limit
        for bad in ("gf:4", "gf:1", "gf:", "gf:x", "r", "2", "gf:\u00b2", "gf:\u0663", too_long):
            with pytest.raises(ValueError):
                FieldSpec.parse(bad)
        with pytest.raises(ValueError, match="^bad field spec 'gf:\u00b2'$"):
            FieldSpec.parse("gf:\u00b2")
        with pytest.raises(ValueError, match=f"^bad field spec '{too_long}'$"):
            FieldSpec.parse(too_long)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldSpec.gf(1)
        with pytest.raises(ValueError):
            FieldSpec.gf(91)
        with pytest.raises(ValueError):
            FieldSpec.gf(2**31 + 11)
        assert FieldSpec.gf(2147483629).p == 2147483629

    @staticmethod
    def is_prime_by_trial_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    def test_is_prime_agrees_with_trial_division(self):
        """Every p below 200,000 and the last 2,000 below 2^31, where
        FieldSpec's range ends."""
        for p in [*range(2, 200_000), *range(2**31 - 2_000, 2**31)]:
            assert _is_prime(p) == self.is_prime_by_trial_division(p), p

    @pytest.mark.parametrize("p", [2047, 1373653, 25326001])
    def test_is_prime_rejects_strong_pseudoprimes(self, p):
        """Strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5: each
        needs a later base of Miller-Rabin to be caught."""
        assert not self.is_prime_by_trial_division(p)
        assert not _is_prime(p)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FieldSpec.gf(p)

    @pytest.mark.parametrize("p", [True, "3"], ids=repr)
    def test_characteristic_must_be_an_integer(self, p):
        with pytest.raises(ValueError, match="^characteristic must be an integer$"):
            FieldSpec(p)

    def test_str_round_trip(self):
        for f in (Q, F2, BIGP):
            assert FieldSpec.parse(str(f)) == f


class TestSparseMatrix:
    def test_drops_zero_entries(self):
        mat = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 0})
        assert mat.entries == {(0, 0): 1}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, {(2, 0): 1})
        with pytest.raises(ValueError):
            SparseMatrix(-1, 2)

    @pytest.mark.parametrize("value", [1.5, True, Fraction(1, 2), Fraction(4, 2)],
                             ids=["float", "bool", "fraction", "whole_fraction"])
    @pytest.mark.parametrize("build", [
        lambda v: SparseMatrix(1, 1, {(0, 0): v}),
        lambda v: SparseMatrix.from_dense([[v]]),
    ], ids=["mapping", "from_dense"])
    def test_rejects_bad_values(self, build, value):
        with pytest.raises(ValueError, match="^entries must be ints, got "):
            build(value)

    def test_from_dense(self):
        mat = SparseMatrix.from_dense([[1, 0], [0, 2]])
        assert mat.rows == 2 and mat.cols == 2
        assert mat.entries == {(0, 0): 1, (1, 1): 2}
        with pytest.raises(ValueError):
            SparseMatrix.from_dense([[1, 0], [1]])

    @pytest.mark.parametrize("data", [[1, 2], [[1, 2], 3], "ab", ["ab"], {0: [1]}, None],
                             ids=["ints", "int_row", "string", "string_row", "mapping", "none"])
    def test_from_dense_rejects_what_is_not_a_list_of_rows(self, data):
        with pytest.raises(ValueError, match="^dense matrix .* is not a list of rows$"):
            SparseMatrix.from_dense(data)

    def test_value_contract(self):
        mat = SparseMatrix(2, 2, {(0, 0): 1})
        assert mat == SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 0})
        assert mat != SparseMatrix(2, 3, {(0, 0): 1})
        assert (mat == "x") is False
        with pytest.raises(TypeError):
            hash(mat)
        assert repr(mat) == "SparseMatrix(2x2, nnz=1)"
        assert SparseMatrix(rows=1, cols=1, entries={(0, 0): 2}).entries == {(0, 0): 2}

    @pytest.mark.parametrize("shape", [(1.5, 2), (2, 1.5), (True, 2), (2, False), ("2", 2)])
    def test_rejects_dimensions_that_are_not_ints(self, shape):
        with pytest.raises(ValueError, match="^matrix dimensions"):
            SparseMatrix(*shape)

    @pytest.mark.parametrize("index", [(0.0, 0), (0, 1.0), (True, 0), (0, False), (Fraction(1), 0),
                                       5, (0, 0, 0)])
    def test_rejects_indices_that_are_not_ints(self, index):
        with pytest.raises(ValueError, match=f"^entry {re.escape(repr(index))} outside a 2x2 matrix$"):
            SparseMatrix(2, 2, {index: 1})

    def test_stores_rows_in_column_order(self):
        mat = SparseMatrix(3, 4, {(2, 3): 5, (0, 1): 0, (2, 0): 7, (0, 2): -1})
        assert mat.by_row == [[(2, -1)], [], [(0, 7), (3, 5)]]
        assert transposed(mat).by_row == [[(2, 7)], [], [(0, -1)], [(2, 5)]]


class TestRank:
    def test_identity(self):
        eye = SparseMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(eye, Q) == 3
        assert rank(eye, F2) == 3

    def test_zero_matrix(self):
        assert rank(SparseMatrix(2, 5), Q) == 0
        assert rank(SparseMatrix(0, 0), Q) == 0

    def test_hollow_triangle_coboundary(self):
        # vertex-to-edge coboundary of the triangle boundary
        delta0 = SparseMatrix.from_dense(
            [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
        )
        assert rank(delta0, Q) == 2
        assert rank(delta0, F2) == 2

    def test_characteristic_matters(self):
        mat = SparseMatrix.from_dense([[2]])
        assert rank(mat, Q) == 1
        assert rank(mat, F2) == 0
        twos = SparseMatrix.from_dense([[1, 1], [1, -1]])
        assert rank(twos, Q) == 2
        assert rank(twos, F2) == 1

    def test_fraction_entries(self):
        # Entries are ints: a Fraction is refused even when it is whole,
        # and the whole-number rows it stood for rank as ints.
        for value in (Fraction(1, 2), Fraction(4, 2)):
            with pytest.raises(ValueError):
                SparseMatrix.from_dense([[value, 2], [2, 3]])
        whole = SparseMatrix.from_dense([[2, 2], [2, 3]])
        assert rank(whole, Q) == 2
        assert rank(whole, F2) == 1
        assert rank(whole, FieldSpec.gf(3)) == 2

    def test_against_minor_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            data = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            expected = minor_rank_oracle(data)
            assert rank(SparseMatrix.from_dense(data), Q) == expected

    def test_against_dense_oracle_rationals(self):
        rng = random.Random(11)
        for _ in range(40):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            data = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
            mat = SparseMatrix.from_dense(data)
            expected = dense_rank_oracle(data)
            assert rank(mat, Q) == expected
            assert rank(transposed(mat), Q) == expected
            assert expected <= min(nr, nc)

    def test_against_dense_oracle_mod_p(self):
        rng = random.Random(17)
        for p in (2, 3, 32003, 2147483629):
            fld = FieldSpec.gf(p)
            for _ in range(25):
                nr, nc = rng.randint(1, 7), rng.randint(1, 7)
                data = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
                assert rank(SparseMatrix.from_dense(data), fld) == dense_rank_oracle(
                    data, p
                )

    def test_pivot_queue_on_larger_sparse_matrices(self):
        """Sizes where each row is reduced many times and fills in; half
        the cases are products of thin factors, hence rank-deficient, so
        many rows reduce to zero."""
        rng = random.Random(41)

        def sparse(nr, nc, density):
            return [
                [rng.choice((-3, -1, 1, 2, 5)) if rng.random() < density else 0
                 for _ in range(nc)]
                for _ in range(nr)
            ]

        for case in range(8):
            nr, nc = rng.randint(30, 120), rng.randint(30, 120)
            if case % 2:
                k = rng.randint(3, 20)
                # factor density (0.08 / k) ** 0.5 makes the product about 8 % dense
                left = sparse(nr, k, (0.08 / k) ** 0.5)
                right = sparse(k, nc, (0.08 / k) ** 0.5)
                data = [
                    [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    for row in left
                ]
            else:
                data = sparse(nr, nc, rng.uniform(0.05, 0.1))
            mat = SparseMatrix.from_dense(data)
            for p in (None, 2, 32003, 2147483629):
                assert rank(mat, FieldSpec(p)) == dense_rank_oracle(data, p), (case, p)

    @pytest.mark.parametrize("field", [Q, F2, BIGP, FieldSpec.gf(2147483629)], ids=str)
    def test_full_simplex_coboundaries(self, field):
        """The full simplex on n vertices is acyclic, so the coboundary out
        of the faces of size k has rank C(n-1, k)."""
        for n in range(1, 11):
            levels = [[] for _ in range(n + 1)]
            for m in range(1 << n):
                levels[m.bit_count()].append(m)
            diffs = _coboundaries(levels, (1 << n) - 1)
            assert [rank(d, field) for d in diffs] == [comb(n - 1, k) for k in range(n)], n

    def test_q_agrees_with_large_prime_on_small_sign_matrices(self):
        rng = random.Random(23)
        for _ in range(40):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            data = [[rng.choice((-1, 0, 1)) for _ in range(nc)] for _ in range(nr)]
            mat = SparseMatrix.from_dense(data)
            assert rank(mat, Q) == rank(mat, BIGP)

    def test_deterministic(self):
        rng = random.Random(31)
        data = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
        mat = SparseMatrix.from_dense(data)
        results = {rank(mat, Q) for _ in range(5)}
        assert len(results) == 1

    def test_overflow_safety(self):
        # the 6x6 Hilbert matrix times lcm(1..11): entries up to 27720 force
        # large intermediate integers
        data = [[27720 // (r + c + 1) for c in range(6)] for r in range(6)]
        assert rank(SparseMatrix.from_dense(data), Q) == 6

    def test_negative_int_entries(self):
        twos = SparseMatrix.from_dense([[-1, -2], [-3, -4]])
        assert (rank(twos, Q), rank(twos, F2), rank(twos, FieldSpec.gf(3))) == (2, 1, 2)
        rng = random.Random(21)
        for p in (2, 3, 32003):
            for _ in range(30):
                nr, nc = rng.randint(1, 6), rng.randint(1, 6)
                data = [[-rng.randint(0, 6) for _ in range(nc)] for _ in range(nr)]
                assert rank(SparseMatrix.from_dense(data), FieldSpec.gf(p)) == dense_rank_oracle(
                    data, p), (p, data)

    @pytest.mark.parametrize("p", [None, 2, 3, 32003], ids=str)
    def test_pivots_are_the_last_columns_of_the_row_space(self, p):
        """The kept rows' last columns are the columns c at which the rank
        of the columns from c on exceeds the rank of those past c: the
        last columns of the nonzero vectors in the row space."""
        rng = random.Random(43)
        for _ in range(40):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            data = [[rng.choice((0, 0, -3, -1, 1, 2, 3)) for _ in range(nc)] for _ in range(nr)]
            pivots = set()
            r = rank(SparseMatrix.from_dense(data), FieldSpec(p), pivots=pivots)

            def from_column(c):
                return dense_rank_oracle([row[c:] for row in data], p) if c < nc else 0

            assert pivots == {c for c in range(nc) if from_column(c) > from_column(c + 1)}
            assert r == len(pivots) == dense_rank_oracle(data, p)

    @pytest.mark.parametrize("p", [None, 2, 3, 32003], ids=str)
    def test_skipping_rows_in_the_span_of_earlier_rows(self, p):
        """Leaving out rows that are combinations of the rows before them
        changes neither the rank nor the pivots; any row left out is left
        out of the count."""
        rng = random.Random(47)
        for _ in range(40):
            nr, nc = rng.randint(2, 8), rng.randint(1, 5)
            data = [[rng.choice((0, -1, 1, 2)) for _ in range(nc)] for _ in range(nr)]
            mat, fld = SparseMatrix.from_dense(data), FieldSpec(p)
            full = set()
            r = rank(mat, fld, pivots=full)
            spanned = {i for i in range(nr)
                       if dense_rank_oracle(data[:i + 1], p) == dense_rank_oracle(data[:i], p)}
            skip = {i for i in spanned if rng.random() < 0.7}
            kept = set()
            assert rank(mat, fld, skip=skip, pivots=kept) == r
            assert kept == full
            for i in set(range(nr)) - spanned:
                rest = data[:i] + data[i + 1:]
                assert rank(mat, fld, skip={i}) == dense_rank_oracle(rest, p), (data, i)


def random_family(rng, n, fixed):
    """Random masks within bits 0..n-1, each holding `fixed`, closed under
    dropping any bit outside `fixed` (a Cech strand's shape; a simplicial
    complex when fixed is 0)."""
    family = set()
    for _ in range(rng.randint(0, 4)):
        top = fixed | sum(1 << i for i in range(n) if rng.randrange(5) < 3)
        sub = top & ~fixed
        while True:
            family.add(fixed | sub)
            if not sub:
                break
            sub = (sub - 1) & top & ~fixed
    return family


def reference_coboundary(lower, upper, n, droppable):
    """From the definition: F = G - {v} -> G has entry (-1)^#{u in G : u < v}."""
    entries = {}
    for r, G in enumerate(upper):
        for v in range(n):
            if G >> v & 1 and droppable >> v & 1:
                below = sum(G >> u & 1 for u in range(v))
                entries[(r, lower.index(G & ~(1 << v)))] = (-1) ** below
    return SparseMatrix(len(upper), len(lower), entries)


class TestCoboundaryKernel:
    """The coboundary assembly and cohomology count both routes share,
    against the definition and a dense rank count."""

    def cases(self):
        """Levels in increasing-mask and in combinations order; every other
        family keeps some fixed bits that are never dropped, as a Cech
        strand keeps the negative support, and levels below the fixed bits'
        count stay empty.  Yields the levels, the mask of the bits to drop
        and the reference coboundaries."""
        rng = random.Random(18)
        for trial in range(80):
            n = rng.randint(1, 5)
            fixed = 0 if trial % 2 else sum(1 << i for i in range(n) if rng.randrange(4) == 0)
            family = random_family(rng, n, fixed)
            droppable = (1 << n) - 1 & ~fixed
            for order in (lambda F: F, lambda F: [i for i in range(n) if F >> i & 1]):
                levels = [[] for _ in range(n + 1)]
                for F in sorted(family, key=order):
                    levels[F.bit_count()].append(F)
                yield levels, droppable, [reference_coboundary(lower, upper, n, droppable)
                                          for lower, upper in zip(levels, levels[1:])]

    def test_matches_the_definition(self):
        multi_entry_rows = fixed_bits = empty_levels = 0
        for levels, drop, refs in self.cases():
            diffs = _coboundaries(levels, drop)
            assert diffs == refs
            multi_entry_rows += sum(len(row) > 1 for d in diffs for row in d.by_row)
            fixed_bits += drop.bit_count() < len(diffs) and any(levels)
            empty_levels += any(levels) and not all(levels)
        assert multi_entry_rows > 100 and fixed_bits > 10 and empty_levels > 10

    def test_cohomology_matches_a_dense_rank_count(self):
        for levels, drop, refs in self.cases():
            for field, p in ((Q, None), (F2, 2)):
                dense = [dense_rank_oracle([[d.entries.get((r, c), 0) for c in range(d.cols)]
                                            for r in range(d.rows)], p) for d in refs]
                expected = []
                for q, level in enumerate(levels):
                    kernel = len(level) - (dense[q] if q < len(dense) else 0)
                    expected.append(kernel - (dense[q - 1] if q else 0))
                ranks = [rank(d, field) for d in _coboundaries(levels, drop)]
                assert _cohomology(levels, ranks) == expected
                assert sum((-1) ** q * h for q, h in enumerate(expected)) == sum(
                    (-1) ** q * len(level) for q, level in enumerate(levels))
