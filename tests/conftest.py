import math
import random

import pytest

from scl import currents, geometry, graphs, mcg, words
from scl.errors import PeripheralSubgroupError, TrivialSubgroupError


def hall_count(rank, k):
    """Number of index-k subgroups of the rank-n free group, by the
    classical recursion on transitive actions."""
    memo = {}

    def n_k(j):
        if j in memo:
            return memo[j]
        total = j * math.factorial(j) ** (rank - 1)
        for i in range(1, j):
            total -= math.factorial(j - i) ** (rank - 1) * n_k(i)
        memo[j] = total
        return total

    return n_k(k)


@pytest.fixture(scope="session")
def torus():
    return geometry.modular_torus()


def random_raw_letters(rng, rank=2, max_len=12):
    n = rng.randint(1, max_len)
    return [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(n)]


def random_reduced_word(rng, rank=2, max_len=12):
    """Uniform-ish nonempty reduced word: random letters, no backtracking."""
    n = rng.randint(1, max_len)
    out = []
    while len(out) < n:
        l = rng.choice([1, -1]) * rng.randint(1, rank)
        if out and out[-1] == -l:
            continue
        out.append(l)
    return tuple(out)


def random_subgroup_class(rng, surface, max_rank=4, max_len=12, cyclic_ok=True):
    """Random member of the subgroup universe, by folding random words."""
    while True:
        count = rng.randint(1, max_rank)
        if not cyclic_ok and count == 1:
            count = 2
        gens = [random_reduced_word(rng, surface.rank, max_len) for _ in range(count)]
        try:
            return graphs.subgroup_class(gens, surface=surface, rank=surface.rank)
        except (TrivialSubgroupError, PeripheralSubgroupError):
            continue


def random_multicurve(rng, surface, max_classes=4, max_len=10):
    weights = {}
    tries = 0
    while len(weights) < rng.randint(1, max_classes) and tries < 50:
        tries += 1
        w = random_reduced_word(rng, surface.rank, max_len)
        try:
            c = words.conj_class(w)
        except Exception:
            continue
        root, _ = words.primitive_root(c)
        if words.is_peripheral(root, 1, surface):
            continue
        from fractions import Fraction
        weights[root] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if not weights:
        from fractions import Fraction
        weights = {words.conj_class(words.word_from_str("a")): Fraction(1)}
    return currents.Multicurve.from_terms(weights.items())


def random_mapping_class(rng, surface, max_twists=6):
    gens = mcg.twist_generators(surface)
    phi = words.identity_automorphism(surface.rank)
    for _ in range(rng.randint(1, max_twists)):
        phi = words.compose(rng.choice(gens), phi)
    return phi


@pytest.fixture
def rng():
    return random.Random(20240817)
