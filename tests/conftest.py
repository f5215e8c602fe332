import itertools
import random

from monolc import MonomialIdeal, parse_ideal, random_ideal


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


def golden_ideal() -> MonomialIdeal:
    return parse_ideal("vars x y\ngens x^2, x*y")


def edge_ideal(k: int) -> MonomialIdeal:
    """The edge ideal of the complete graph K_k in x1..xk: k(k-1)/2
    square-free quadrics."""
    names = [f"x{i}" for i in range(1, k + 1)]
    gens = ", ".join(u + "*" + v for u, v in itertools.combinations(names, 2))
    return parse_ideal(f"vars {' '.join(names)}\ngens {gens}")
