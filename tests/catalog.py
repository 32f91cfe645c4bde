"""Shared test builders: a seeded catalog of finite C_p-modules assembled
from trivial/twisted/permutation/cyclotomic blocks under random basis
changes, plus an element-level Tate oracle that never touches the lattice
machinery being tested."""

import random
from itertools import product
from typing import NamedTuple

from cptate import (
    CpModule,
    IntMatrix,
    direct_sum,
    inverse_unimodular,
    new_cp_module,
    snf,
)

PRIMES = (2, 3, 5, 7)

# (q, a) with a of multiplicative order exactly p mod q
TWISTS = {
    2: ((3, 2), (5, 4), (7, 6), (9, 8), (11, 10)),
    3: ((7, 2), (9, 4), (13, 3)),
    5: ((11, 3),),
    7: ((29, 16),),
}


def trivial_block(p: int, n: int) -> CpModule:
    return new_cp_module(p, IntMatrix.diagonal([n]), IntMatrix.identity(1))


def twist_block(p: int, q: int, a: int) -> CpModule:
    return new_cp_module(p, IntMatrix.diagonal([q]), IntMatrix.from_rows([[a]]))


def perm_block(p: int, n: int) -> CpModule:
    """(Z/n)^p with the generator cycling the coordinates."""
    cols = [[1 if i == (j + 1) % p else 0 for i in range(p)] for j in range(p)]
    return new_cp_module(p, n * IntMatrix.identity(p), IntMatrix.from_columns(cols, p))


def aug_mod_block(p: int, q: int) -> CpModule:
    """(Z/q)^(p-1) with the cyclotomic companion action."""
    n = p - 1
    cols = [[1 if i == j + 1 else 0 for i in range(n)] for j in range(n - 1)]
    cols.append([-1] * n)
    return new_cp_module(p, q * IntMatrix.identity(n), IntMatrix.from_columns(cols, n))


def random_unimodular(rng: random.Random, m: int, steps: int = 8) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(steps if m > 1 else 0):
        kind = rng.randrange(3)
        i, j = rng.sample(range(m), 2)
        if kind == 0:
            k = rng.choice((-2, -1, 1, 2))
            rows[j] = [a + k * b for a, b in zip(rows[j], rows[i])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows, cols=m)


def conjugate(module: CpModule, w: IntMatrix) -> CpModule:
    """The same module presented in the basis y = w x."""
    w_inv = inverse_unimodular(w)
    return new_cp_module(module.p, w @ module.group.relations, w @ module.tau @ w_inv)


def base_blocks(p: int) -> list:
    blocks = [trivial_block(p, n) for n in (2, 3, 4, 5, 8, 9, p, p * p)]
    blocks += [twist_block(p, q, a) for q, a in TWISTS[p]]
    blocks += [perm_block(p, n) for n in (2, 3, 4)]
    blocks += [aug_mod_block(p, q) for q in (2, 3, 5)]
    return blocks


def finite_catalog() -> list:
    """Deterministic list of finite C_p-modules, >= 100 across all p."""
    rng = random.Random(20250814)
    mods = []
    for p in PRIMES:
        blocks = base_blocks(p)
        mods.extend(blocks)
        for _ in range(18):
            m = rng.choice(blocks)
            for _ in range(rng.randint(0, 2)):
                m = direct_sum(m, rng.choice(blocks))
            mods.append(conjugate(m, random_unimodular(rng, m.ambient_rank)))
    return mods


class BruteCounts(NamedTuple):
    dim_h0: int
    dim_h1: int
    fixed_order: int        # |Ker S|, the number of fixed elements
    fixed_p_torsion: int    # fixed elements killed by p


def brute_tate_dims(module: CpModule):
    """(dim H^0, dim H^1) by exhaustive element enumeration."""
    return brute_counts(module)[:2]


def brute_counts(module: CpModule) -> BruteCounts:
    """Tate dimensions and fixed-point counts by exhaustive enumeration.

    Works in Smith coordinates, where the group is a product of cyclic
    factors; asserts along the way that images sit inside the kernels and
    that both quotients are elementary abelian p-groups.
    """
    dec = snf(module.group.relations)
    m = module.ambient_rank
    if dec.rank != m:
        raise ValueError("finite modules only")
    d = list(dec.diagonal)
    ty = (dec.u @ module.tau @ inverse_unimodular(dec.u)).to_rows()
    zero = (0,) * m
    p = module.p

    def act(x):
        return tuple(sum(ty[i][j] * x[j] for j in range(m)) % d[i] for i in range(m))

    def addv(x, y):
        return tuple((a + b) % di for a, b, di in zip(x, y, d))

    ker_s, ker_n = [], []
    im_s, im_n = set(), set()
    for x in product(*(range(di) for di in d)):
        tx = act(x)
        sx = tuple((a - b) % di for a, b, di in zip(tx, x, d))
        im_s.add(sx)
        if sx == zero:
            ker_s.append(x)
        acc, cur = x, x
        for _ in range(p - 1):
            cur = act(cur)
            acc = addv(acc, cur)
        im_n.add(acc)
        if acc == zero:
            ker_n.append(x)

    def quot_dim(ker, img):
        kset = set(ker)
        assert img <= kset, "image not inside kernel"
        assert len(ker) % len(img) == 0
        ratio = len(ker) // len(img)
        dim = 0
        while ratio > 1:
            assert ratio % p == 0, "quotient order not a p-power"
            ratio //= p
            dim += 1
        for x in ker:
            px = tuple((a * p) % di for a, di in zip(x, d))
            assert px in img, "quotient not elementary abelian"
        return dim

    killed = sum(1 for x in ker_s if all((a * p) % di == 0 for a, di in zip(x, d)))
    return BruteCounts(quot_dim(ker_s, im_n), quot_dim(ker_n, im_s), len(ker_s), killed)
