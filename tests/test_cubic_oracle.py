"""Independent derivation of the class groups bundled in the cyclic cubic
fixture, from defining polynomials alone.

For each conductor the fixture claims a class group; this file recomputes
them with elementary ideal arithmetic in Z[theta]:

  * maximality of Z[theta] at the ramified prime via an Eisenstein shift,
  * Minkowski bounds to cut generation down to a few small primes,
  * valuation vectors of small elements with smooth norm, giving a
    presentation whose cokernel bounds the class group from above,
  * a cubic residue obstruction showing a specific prime is nonprincipal,
    which bounds the class group from below.

Everything runs over plain integers, with a test-local determinant and
Hermite reduction, so the fixture is checked by machinery entirely
disjoint from the package: its quadratic-field code and its integer
linear algebra alike.
"""

import math
from itertools import product
from pathlib import Path

from cptate.numfield import scan_cubic_csv

DATA = Path(__file__).parent / "data"

# monic defining polynomials, coefficients by ascending degree
POLYS = {
    7: (-1, -2, 1, 1),
    9: (-1, -3, 0, 1),
    13: (1, -4, 1, 1),
    63: (-35, -21, 0, 1),
}


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_disc(f):
    d, c, b, a = f
    return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def roots_mod(f, q):
    return [r for r in range(q) if poly_eval(f, r) % q == 0]


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_polynomials_define_cyclic_cubics_with_maximal_theta_order():
    for conductor, f in POLYS.items():
        disc = poly_disc(f)
        assert disc == conductor * conductor
        # square discriminant: Galois group is the 3-cycle, so the field
        # is cyclic over Q
        assert is_square(disc)
        # at each ramified prime the reduction is a cubed linear factor;
        # shifting theta by its root gives an Eisenstein polynomial, so
        # Z[theta] is maximal there. disc(f) has no other prime factors,
        # hence Z[theta] is the full ring of integers.
        for q in [p for p in (3, 7, 13) if disc % p == 0]:
            rs = roots_mod(f, q)
            assert len(rs) == 1, f"conductor {conductor}: not totally ramified at {q}"
            r = rs[0]
            assert all((poly_eval(f, x) - (x - r) ** 3) % q == 0 for x in range(q))
            assert poly_eval(f, r) % (q * q) != 0, f"index divisible by {q}"


def minkowski_bound(disc):
    # totally real cubic: (3!/3^3) sqrt(disc)
    return 2 * math.isqrt(disc) / 9


def test_minkowski_bounds():
    assert minkowski_bound(49) < 2
    assert 2 <= minkowski_bound(81) < 3
    assert 2 < minkowski_bound(169) < 3
    assert minkowski_bound(3969) == 14


def test_small_conductors_have_trivial_class_group():
    # conductor 7: every class contains an ideal of norm 1, done.
    assert minkowski_bound(49) < 2
    # conductors 9 and 13: only ideals of norm <= 2 matter, and 2 is
    # inert (the cubic has no root mod 2), so no such prime exists
    for conductor in (9, 13):
        f = POLYS[conductor]
        assert minkowski_bound(conductor * conductor) < 3
        assert roots_mod(f, 2) == []


# -- conductor 63 ------------------------------------------------------------


def companion(f):
    d, c, b, _ = f
    return [[0, 0, -d], [1, 0, -c], [0, 1, -b]]


def mat_mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def det3(m):
    """Cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def norm(f, a, b, c):
    # the norm of a + b theta + c theta^2 is the determinant of its
    # multiplication matrix
    th = companion(f)
    th2 = mat_mul(th, th)
    return det3([[a * (i == j) + b * th[i][j] + c * th2[i][j] for j in range(3)]
                 for i in range(3)])


def xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x a + y b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_pivots(vectors, n):
    """Pivots of an echelon basis of the lattice that vectors span in Z^n:
    entry i is the positive leading entry of the basis vector that starts
    at coordinate i, or 0 if none does. Each vector is merged into the
    basis by extended gcds on its leading coordinate, a unimodular step,
    so the span never changes."""
    basis = [None] * n
    for v in vectors:
        v = list(v)
        for i in range(n):
            if v[i] == 0:
                continue
            b = basis[i]
            if b is None:
                basis[i] = v if v[i] > 0 else [-x for x in v]
                break
            g, x, y = xgcd(b[i], v[i])
            s, t = v[i] // g, b[i] // g
            basis[i] = [x * p + y * q for p, q in zip(b, v)]
            v = [s * p - t * q for p, q in zip(b, v)]
    return [0 if b is None else b[i] for i, b in enumerate(basis)]


def vq(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def hensel_lift(f, r, q, k):
    # unique root of f above r modulo q^k; needs f'(r) invertible mod q
    d, c, b, _ = f
    fprime = lambda x: 3 * x * x + 2 * b * x + c
    assert fprime(r) % q != 0
    mod = q
    for _ in range(k - 1):
        new_mod = mod * q
        t = (-(poly_eval(f, r) // mod) * pow(fprime(r), -1, q)) % q
        r = (r + mod * t) % new_mod
        mod = new_mod
    assert poly_eval(f, r) % mod == 0
    return r, mod


def test_conductor_63_class_group_is_z3():
    f = POLYS[63]
    # generated by the primes of norm <= 14: the ramified primes above
    # 3 and 7, and the three primes above each of the split 5 and 11;
    # 2 and 13 are inert (no roots) so their primes are principal
    assert roots_mod(f, 2) == [] and roots_mod(f, 13) == []
    assert len(roots_mod(f, 5)) == 3 and len(roots_mod(f, 11)) == 3

    lift_k = 18
    split = {q: [hensel_lift(f, r, q, lift_k) for r in roots_mod(f, q)]
             for q in (5, 11)}
    # generator order: p3, three p5s, p7, three p11s
    columns = []
    for a, b, c in product(range(-6, 7), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        n = abs(norm(f, a, b, c))
        assert n != 0
        rest = n
        for q in (2, 3, 5, 7, 11, 13):
            while rest % q == 0:
                rest //= q
        if rest != 1:
            continue
        # inert primes only enter through full principal powers
        if vq(n, 2) % 3 or vq(n, 13) % 3:
            continue
        vec = [vq(n, 3)]
        ok = True
        for q in (5, 11):
            vals = []
            for r, mod in split[q]:
                e = (a + b * r + c * r * r) % mod
                vals.append(vq(e, q) if e else lift_k)
            if sum(vals) != vq(n, q) or max(vals) >= lift_k:
                ok = False
                break
            vec.extend(vals)
        if not ok:
            continue
        vec.insert(4, vq(n, 7))
        columns.append(vec)

    assert len(columns) > 100
    pivots = hermite_pivots(columns, 8)
    # upper bound: the class group is a quotient of Z^8 modulo these
    # relations, which have full rank and index 3, a prime, so the
    # quotient is Z/3
    assert all(pivots)
    assert math.prod(pivots) == 3

    # lower bound: norms are cubes modulo the totally ramified 7, and
    # neither +5 nor -5 is one, so no element generates a prime above 5
    cubes = {pow(x, 3, 7) for x in range(7)}
    assert cubes == {0, 1, 6}
    assert 5 % 7 not in cubes and -5 % 7 not in cubes

    # together: class group = Z/3 exactly


def test_fixture_matches_derived_class_groups():
    got = {r.conductor: r.invariants for _, r in scan_cubic_csv(DATA / "cyclic_cubic.csv")}
    assert got == {7: (), 9: (), 13: (), 63: (3,)}
