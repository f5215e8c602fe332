import random
from fractions import Fraction
from itertools import combinations

import pytest

from monolc import FieldSpec, SparseMatrix, rank

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
        for bad in ("gf:4", "gf:1", "gf:", "gf:x", "r", "2", "gf:\u00b2", "gf:\u0663"):
            with pytest.raises(ValueError):
                FieldSpec.parse(bad)
        with pytest.raises(ValueError, match="^bad field spec 'gf:\u00b2'$"):
            FieldSpec.parse("gf:\u00b2")

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldSpec.gf(1)
        with pytest.raises(ValueError):
            FieldSpec.gf(91)
        with pytest.raises(ValueError):
            FieldSpec.gf(2**31 + 11)
        assert FieldSpec.gf(2147483629).p == 2147483629

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

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, {(0, 0): 1.5})

    def test_from_dense(self):
        mat = SparseMatrix.from_dense([[1, 0], [0, 2]])
        assert mat.rows == 2 and mat.cols == 2
        assert mat.entries == {(0, 0): 1, (1, 1): 2}
        with pytest.raises(ValueError):
            SparseMatrix.from_dense([[1, 0], [1]])

    def test_transpose_and_eq(self):
        mat = SparseMatrix.from_dense([[1, 2, 0]])
        assert mat.transpose() == SparseMatrix.from_dense([[1], [2], [0]])


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
        mat = SparseMatrix.from_dense([[Fraction(1, 2), 1], [1, 2]])
        assert rank(mat, Q) == 1
        mat2 = SparseMatrix.from_dense([[Fraction(1, 3), 1], [1, 2]])
        assert rank(mat2, Q) == 2
        whole = SparseMatrix.from_dense([[Fraction(4, 2), 2], [Fraction(6, 3), 3]])
        assert rank(whole, Q) == 2
        assert rank(whole, F2) == 1
        assert rank(whole, FieldSpec.gf(3)) == 2

    def test_fraction_mod_p(self):
        mat = SparseMatrix.from_dense([[Fraction(1, 3)]])
        assert rank(mat, F2) == 1
        with pytest.raises(ValueError):
            rank(SparseMatrix.from_dense([[Fraction(1, 2)]]), F2)

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
            assert rank(mat.transpose(), Q) == expected
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
        """Sizes where elimination changes rows many times, so the pivot
        queue holds stale entries; half the cases are products of thin
        factors, hence rank-deficient."""
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
        # Hilbert-like matrix entries force large intermediate integers
        data = [[Fraction(1, r + c + 1) for c in range(6)] for r in range(6)]
        assert rank(SparseMatrix.from_dense(data), Q) == 6
