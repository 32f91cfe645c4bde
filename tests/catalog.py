"""Shared test builders: a seeded catalog of finite C_p-modules assembled
from trivial/twisted/permutation/cyclotomic blocks under random basis
changes, plus an element-level Tate oracle and a lattice membership test
that never touch the lattice machinery being tested."""

import random
from functools import lru_cache
from itertools import product
from operator import mul
from typing import NamedTuple

from cptate import CpModule, IntMatrix, direct_sum, new_cp_module

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


def random_unimodular(rng: random.Random, m: int, steps: int = 8):
    """(w, w^-1) for a random product w of elementary row operations; the
    inverse undoes the same operations in reverse order, as column
    operations on the identity."""
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    inv = [row[:] for row in rows]
    for _ in range(steps if m > 1 else 0):
        kind = rng.randrange(3)
        i, j = rng.sample(range(m), 2)
        if kind == 0:
            # row_j += k row_i, undone on the right by col_i -= k col_j
            k = rng.choice((-2, -1, 1, 2))
            rows[j] = [a + k * b for a, b in zip(rows[j], rows[i])]
            for r in inv:
                r[i] -= k * r[j]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        else:
            rows[i] = [-a for a in rows[i]]
            for r in inv:
                r[i] = -r[i]
    return IntMatrix.from_rows(rows, cols=m), IntMatrix.from_rows(inv, cols=m)


def conjugate(module: CpModule, w: IntMatrix, w_inv: IntMatrix) -> CpModule:
    """The same module presented in the basis y = w x; w_inv is w^-1."""
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
            mods.append(conjugate(m, *random_unimodular(rng, m.ambient_rank)))
    return mods


class BruteCounts(NamedTuple):
    dim_h0: int
    dim_h1: int
    fixed_order: int        # |Ker S|, the number of fixed elements
    fixed_p_torsion: int    # fixed elements killed by p


def brute_tate_dims(module: CpModule):
    """(dim H^0, dim H^1) by exhaustive element enumeration."""
    return brute_counts(module)[:2]


def _diagonal_coordinates(relations, m):
    """(d, u, u_inv) with u @ relations @ v diagonal, d its diagonal, for
    some unimodular v, by plain elimination: move a least nonzero entry to
    the pivot, reduce its row and column by it, and repeat until both are
    clear. Only the row operations are recorded, on u and, undone, on
    u_inv; the diagonal need not be a divisibility chain, as the
    enumeration only needs the group as a product of cyclic factors."""
    a = [list(r) for r in relations]
    k = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    u_inv = [r[:] for r in u]

    def add_row(dst, src, c):  # row_dst += c row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for r in u_inv:
            r[src] -= c * r[dst]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, k)):
        while True:
            entries = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, k) if a[i][j]]
            if not entries:
                break
            _, i, j = min(entries)
            swap_rows(t, i)
            for r in a:
                r[t], r[j] = r[j], r[t]
            for i in range(t + 1, m):
                add_row(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, k):
                q = a[t][j] // a[t][t]
                for r in a:
                    r[j] -= q * r[t]
            if not any(a[i][t] for i in range(t + 1, m)) and not any(a[t][t + 1:]):
                break
    # the lattice of a diagonal form is spanned by |a_ii| e_i
    return [abs(a[i][i]) if i < k else 0 for i in range(m)], u, u_inv


@lru_cache(maxsize=64)
def _lattice_coordinates(relations: IntMatrix):
    d, u, _ = _diagonal_coordinates(relations.to_rows(), relations.rows)
    return d, u


def in_lattice(relations: IntMatrix, b) -> bool:
    """Whether the vector b lies in the lattice spanned by the columns of
    relations: with u and d from _diagonal_coordinates, the lattice is
    u^-1 times the one spanned by the d_i e_i, so b lies in it iff each
    (u b)_i is a multiple of d_i, and 0 where d_i is 0."""
    d, u = _lattice_coordinates(relations)
    b = tuple(b)
    for di, row in zip(d, u):
        x = sum(map(mul, row, b))
        if (x % di if di else x) != 0:
            return False
    return True


def brute_counts(module: CpModule) -> BruteCounts:
    """Tate dimensions and fixed-point counts by exhaustive enumeration.

    Works in the coordinates of a diagonal form of the relations (see
    _diagonal_coordinates), where the group is a product of cyclic
    factors; asserts along the way that images sit inside the kernels and
    that both quotients are elementary abelian p-groups.
    """
    m = module.ambient_rank
    d, u, u_inv = _diagonal_coordinates(module.group.relations.to_rows(), m)
    if 0 in d:
        raise ValueError("finite modules only")
    tau = module.tau.to_rows()
    u_tau = [[sum(u[i][k] * tau[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    ty = [[sum(u_tau[i][k] * u_inv[k][j] for k in range(m)) for j in range(m)]
          for i in range(m)]
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
