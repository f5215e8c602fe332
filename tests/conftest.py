import itertools
import random

from monolc import MonomialIdeal, SparseMatrix, parse_ideal, random_ideal


def corpus(count: int) -> list[MonomialIdeal]:
    """Seed-deterministic pool of small random ideals (n <= 3,
    exponents <= 3, at most 4 generators)."""
    out = []
    for s in range(count):
        r = random.Random(s)
        n = r.randint(1, 3)
        max_exp = r.randint(1, 3)
        gens = r.randint(0, 4)
        out.append(random_ideal(n, max_exp, gens, seed=10_000 + 7919 * s))
    return out


def many_generators(count: int) -> list[MonomialIdeal]:
    """Seed-deterministic ideals with 5-9 generator draws in 3-5
    variables, exponents <= 2: more minimal blockers than corpus() has,
    so more degrees reach the walk and the nerve."""
    out = []
    for s in range(count):
        r = random.Random(s)
        n = r.randint(3, 5)
        max_exp = r.randint(1, 2)
        gens = r.randint(5, 9)
        out.append(random_ideal(n, max_exp, gens, seed=20_000 + 7919 * s))
    return out


def transposed(mat: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(mat.cols, mat.rows, {(c, r): v for (r, c), v in mat.entries.items()})


def golden_ideal() -> MonomialIdeal:
    return parse_ideal("vars x y\ngens x^2, x*y")


def edge_ideal(k: int) -> MonomialIdeal:
    """The edge ideal of the complete graph K_k in x1..xk: k(k-1)/2
    square-free quadrics."""
    names = [f"x{i}" for i in range(1, k + 1)]
    gens = ", ".join(u + "*" + v for u, v in itertools.combinations(names, 2))
    return parse_ideal(f"vars {' '.join(names)}\ngens {gens}")
