import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cptate import (
    CompositeNotZero,
    DimensionMismatch,
    FgAbGroup,
    IntMatrix,
    cokernel,
    from_invariants,
    snf,
)
from cptate import intlinalg, mfld
from catalog import conjugate, in_lattice, random_unimodular

matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(IntMatrix.from_rows)
    )
)


# -- IntMatrix basics --------------------------------------------------------


def test_matrix_construction_and_access():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.at(1, 2) == 6
    assert a.row(0) == (1, 2, 3)
    assert a.entries[2::a.cols] == (3, 6)
    b = IntMatrix.from_columns([[1, 4], [2, 5], [3, 6]], 2)
    assert a == b


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert (-a).at(0, 0) == -1
    assert (2 * a).at(1, 1) == 8
    assert a.hstack(b).cols == 4


def test_matrix_shape_errors():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a @ b
    with pytest.raises(DimensionMismatch):
        a + IntMatrix.identity(3)
    with pytest.raises(DimensionMismatch, match="shape mismatch in addition"):
        a - IntMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, 2.5]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, True]])


def test_block_diag_and_diagonal():
    d = IntMatrix.diagonal([2, 3], rows=3, cols=2)
    assert d.to_rows() == [[2, 0], [0, 3], [0, 0]]
    b = IntMatrix.block_diag([IntMatrix.identity(1), 2 * IntMatrix.identity(2)])
    assert b.to_rows() == [[1, 0, 0], [0, 2, 0], [0, 0, 2]]


# -- checked and trusted construction -----------------------------------------


def test_public_constructors_keep_their_checks():
    for bad in (2.5, 1.0, True, None):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, (bad,))
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[0, bad]])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([[bad, 0]], 2)
        with pytest.raises(TypeError):
            IntMatrix.diagonal([1, bad])
        # block_diag re-checks even a block that skipped the checks
        with pytest.raises(TypeError):
            IntMatrix.block_diag([IntMatrix.identity(1), IntMatrix._of(1, 1, (bad,))])
    for ragged in (lambda: IntMatrix.from_rows([[1, 2], [3]]),
                   lambda: IntMatrix.from_columns([[1, 2], [3]], 2),
                   lambda: IntMatrix(2, 2, (1, 2, 3))):
        with pytest.raises(DimensionMismatch):
            ragged()
    for negative in (lambda: IntMatrix(-1, 0, ()), lambda: IntMatrix(0, -2, ()),
                     lambda: IntMatrix.identity(-1), lambda: IntMatrix.zeros(-1, 2),
                     lambda: IntMatrix.zeros(2, -1), lambda: IntMatrix.zeros(-2, -2)):
        with pytest.raises(DimensionMismatch, match="negative dimensions"):
            negative()


def _random_matrix(rng, rows, cols):
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                for _ in range(rows)], cols=cols)


def _assert_same_as_checked(got):
    again = IntMatrix(got.rows, got.cols, got.entries)
    assert got == again and hash(got) == hash(again) and repr(got) == repr(again)
    assert type(got.entries) is tuple and all(type(x) is int for x in got.entries)


def test_trusted_results_equal_checked_matrices():
    rng = random.Random(5)
    for _ in range(40):
        m, n, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = _random_matrix(rng, m, n), _random_matrix(rng, m, n)
        c = _random_matrix(rng, n, k)
        product = a @ c
        assert product.to_rows() == [[sum(a.at(i, t) * c.at(t, j) for t in range(n))
                                      for j in range(k)] for i in range(m)]
        assert (a + b).to_rows() == [[x + y for x, y in zip(r, q)]
                                     for r, q in zip(a.to_rows(), b.to_rows())]
        dec = snf(a)
        results = (product, a + b, a - b, -a, 3 * a, a * -2, a.hstack(b),
                   IntMatrix.identity(n), IntMatrix.zeros(m, k), dec.u, dec.u_inv)
        for got in results:
            _assert_same_as_checked(got)


# -- products -----------------------------------------------------------------


def _transpose(a):
    return IntMatrix.from_columns(a.to_rows(), a.cols)


def _assert_product(a, b):
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.entries == tuple(sum(a.at(i, k) * b.at(k, j) for k in range(a.cols))
                                for i in range(a.rows) for j in range(b.cols))
    _assert_same_as_checked(got)


def _random_entries(rng, rows, cols, bits):
    return IntMatrix(rows, cols, tuple(rng.randint(-(1 << bits), 1 << bits)
                                       for _ in range(rows * cols)))


def test_products_of_every_shape_up_to_24():
    rng = random.Random(14)
    for _ in range(120):
        m, n, p = rng.randint(0, 24), rng.randint(0, 24), rng.randint(0, 24)
        bits = rng.choice((1, 8, 16, 26))
        _assert_product(_random_entries(rng, m, n, bits), _random_entries(rng, n, p, bits))
    for n in range(25):
        _assert_product(_random_entries(rng, n, n, 16), _random_entries(rng, n, n, 16))
    # either side of the cutover between dot products and packed rows,
    # in every shape of result, with inner dimensions 0 to 30
    for entries in (intlinalg._DOT_ENTRIES, intlinalg._DOT_ENTRIES + 1):
        for m in (m for m in range(1, entries + 1) if entries % m == 0):
            for n in (0, 1, 2, 7, 30):
                bits = rng.choice((1, 8, 26))
                _assert_product(_random_entries(rng, m, n, bits),
                                _random_entries(rng, n, entries // m, bits))


def test_products_by_zero_and_identity_of_every_shape_up_to_24():
    # a zero factor and a square identity factor skip the arithmetic, on
    # either side; every shape, with 0 x n and n x 0 among them, against
    # one dot product per entry
    rng = random.Random(17)
    for m in range(25):
        for n in range(25):
            a = _random_entries(rng, m, n, rng.choice((1, 8, 70)))
            k = rng.randint(0, 24)
            for left, right in ((a, IntMatrix.identity(n)), (IntMatrix.identity(m), a),
                                (a, IntMatrix.zeros(n, k)), (IntMatrix.zeros(k, m), a)):
                got = left @ right
                cols = [right.entries[j::right.cols] for j in range(right.cols)]
                assert (got.rows, got.cols) == (left.rows, right.cols)
                assert got.entries == tuple(sum(x * y for x, y in zip(left.row(i), c))
                                            for i in range(left.rows) for c in cols)


@pytest.mark.parametrize("n, a_max, b_max", [
    # n a_max b_max = 2^62 - 1 = 3 * 715827883 * 2147483647, the largest packed
    (1, 1, (1 << 62) - 1), (3, 2147483647, 715827883), (1, 2147483647, 2147483649),
    # n a_max b_max = 2^62, the smallest that takes dot products
    (1, 1, 1 << 62), (2, 1 << 31, 1 << 30), (1, 1 << 31, 1 << 31),
    (1, 1, (1 << 63) - 1), (2, (1 << 63) - 1, 1), (4, (1 << 63) - 1, (1 << 63) - 1),
])
def test_products_at_the_edge_of_the_digit_bound(n, a_max, b_max):
    # entries of the result reach +-n a_max b_max; each pattern is taken
    # twice so that the 6 x 6 result is above the cutover to dot products
    a = IntMatrix.from_rows(2 * [[a_max] * n, [-a_max] * n,
                                 [a_max, -a_max] * (n // 2) + [0] * (n % 2)])
    b = IntMatrix.from_rows([2 * [b_max, -b_max, (-1) ** k * b_max] for k in range(n)])
    assert a.rows * b.cols > intlinalg._DOT_ENTRIES
    _assert_product(a, b)
    assert (a @ b).at(0, 0) == n * a_max * b_max
    _assert_product(_transpose(b), _transpose(a))
    # for n = 1, a has zero rows, so a @ b may take dot products; with no
    # zero row the 6 x 6 product is packed
    _assert_product(IntMatrix.from_rows(3 * [[a_max] * n, [-a_max] * n]), b)


def test_products_with_zero_rows_either_side_of_the_cutover():
    # zero rows of the left factor give zero rows, and only the others
    # count toward the cutover to dot products
    rng = random.Random(29)
    for m in (1, 2, 5, 13, 24):
        for live in sorted({0, 1, m // 2, m}):
            for p in (1, 6, 13, 25):
                n, bits = rng.randint(1, 20), rng.choice((1, 16, 70))
                a = [[rng.randint(1, 1 << bits) for _ in range(n)] for _ in range(m)]
                for i in rng.sample(range(m), m - live):
                    a[i] = [0] * n
                _assert_product(IntMatrix.from_rows(a, cols=n), _random_entries(rng, n, p, 16))


def test_products_with_long_entries():
    rng = random.Random(200)
    for _ in range(20):
        m, n, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        long_a, long_b = _random_entries(rng, m, n, 200), _random_entries(rng, n, p, 200)
        _assert_product(long_a, long_b)
        _assert_product(IntMatrix.zeros(m, n), long_b)
        _assert_product(long_a, IntMatrix.zeros(n, p))
        _assert_product(_random_entries(rng, m, n, 4), long_b)
        _assert_product(long_a, _random_entries(rng, n, p, 4))


# -- Smith normal form -------------------------------------------------------


def check_snf_contract(a):
    dec = snf(a)
    assert abs(det(dec.u)) == 1
    assert dec.u @ dec.u_inv == IntMatrix.identity(a.rows)
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    assert dec.rank == sum(1 for x in diag if x)
    # u @ a == diag(d) @ w with w unimodular: rows at and past the rank are
    # zero, row i < rank is divisible by d_i, and the quotient rows X are
    # the first rank rows of w, so the columns of X span Z^rank
    ua = (dec.u @ a).to_rows()
    assert not any(map(any, ua[dec.rank:]))
    assert all(x % d == 0 for d, row in zip(diag[:dec.rank], ua) for x in row)
    quotients = [[x // d for x in row] for d, row in zip(diag[:dec.rank], ua)]
    assert cokernel(IntMatrix.from_rows(quotients, cols=a.cols)).is_trivial
    return dec


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_properties(a):
    check_snf_contract(a)


@settings(max_examples=60, deadline=None)
@given(matrices.filter(lambda a: a.rows == a.cols))
def test_snf_preserves_absolute_determinant(a):
    dec = snf(a)
    prod = 1
    for x in dec.diagonal:
        prod *= x
    assert prod == abs(det(a))


def test_snf_known_small_cases():
    assert snf(IntMatrix.diagonal([2, 3])).diagonal == (1, 6)
    assert snf(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
    assert snf(IntMatrix.identity(4)).diagonal == (1, 1, 1, 1)
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    dec = check_snf_contract(a)
    # gcd of entries is 2; total determinant magnitude fixes the chain
    assert dec.diagonal[0] == 2
    prod = 1
    for x in dec.diagonal:
        prod *= x
    assert prod == abs(det(a))


def _low_rank(rng, rows, cols, rank, bits):
    return _random_entries(rng, rows, rank, bits) @ _random_entries(rng, rank, cols, bits)


def test_snf_of_every_shape_up_to_24():
    # the manifolds workload reaches 23 x 23; low-rank products leave zeros
    # on the diagonal and make the pivot fold rows
    rng = random.Random(15)
    for _ in range(100):
        m, n = rng.randint(0, 24), rng.randint(0, 24)
        check_snf_contract(_random_entries(rng, m, n, rng.choice((1, 4, 16))))
        check_snf_contract(_low_rank(rng, m, n, rng.randint(0, min(m, n, 4)), 3))
    for n in range(25):
        check_snf_contract(_random_entries(rng, n, n, 3))
        check_snf_contract(_low_rank(rng, n, n, n // 2, 2))


def _assert_invariants_of_rows(a):
    # _invariants reads the cokernel's invariants off the rows it consumes
    rows = a.to_rows()
    group = cokernel(a)
    assert intlinalg._invariants(rows, a.cols) == (group.invariant_factors, group.free_rank)


def test_invariants_of_row_lists_match_the_cokernel():
    # the random shapes of test_snf_of_every_shape_up_to_24, and the empty
    # sides 0 x n and m x 0, which have no rows or no entries to eliminate
    rng = random.Random(15)
    for _ in range(100):
        m, n = rng.randint(0, 24), rng.randint(0, 24)
        _assert_invariants_of_rows(_random_entries(rng, m, n, rng.choice((1, 4, 16))))
        _assert_invariants_of_rows(_low_rank(rng, m, n, rng.randint(0, min(m, n, 4)), 3))
    for n in range(25):
        _assert_invariants_of_rows(_random_entries(rng, n, n, 3))
        _assert_invariants_of_rows(_low_rank(rng, n, n, n // 2, 2))
    for k in range(4):
        _assert_invariants_of_rows(IntMatrix.zeros(0, k))
        _assert_invariants_of_rows(IntMatrix.zeros(k, 0))
    assert intlinalg._invariants([], 3) == ((), 0)
    assert intlinalg._invariants([[], []], 0) == ((), 2)


def _assert_carried_columns(rng, a):
    # columns after the first n ride through the elimination as U x, and
    # the pivots are those of snf(a)
    x = _random_entries(rng, a.rows, rng.randint(0, 6), rng.choice((1, 16)))
    rows = a.hstack(x).to_rows()
    rank = intlinalg._eliminate(rows, a.cols)
    dec = snf(a)
    assert rank == dec.rank
    assert tuple(rows[i][i] for i in range(min(a.rows, a.cols))) == dec.diagonal
    assert IntMatrix.from_rows([r[a.cols:] for r in rows], cols=x.cols) == dec.u @ x


def test_carried_columns_come_out_as_u_times_the_columns():
    # the random shapes of test_snf_of_every_shape_up_to_24
    rng = random.Random(15)
    for _ in range(100):
        m, n = rng.randint(0, 24), rng.randint(0, 24)
        _assert_carried_columns(rng, _random_entries(rng, m, n, rng.choice((1, 4, 16))))
        _assert_carried_columns(rng, _low_rank(rng, m, n, rng.randint(0, min(m, n, 4)), 3))
    for n in range(25):
        _assert_carried_columns(rng, _random_entries(rng, n, n, 3))
        _assert_carried_columns(rng, _low_rank(rng, n, n, n // 2, 2))


def test_snf_of_long_entries():
    rng = random.Random(100)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        check_snf_contract(_random_entries(rng, m, n, 100))
        check_snf_contract(_random_entries(rng, m, n, 3) * ((1 << 100) - 1))
    # long invariant factors under a change of basis on both sides
    d = IntMatrix.diagonal([1 << 100, 3 ** 70 << 100, 0])
    for _ in range(10):
        moved = random_unimodular(rng, 3, 12)[0] @ d @ random_unimodular(rng, 3, 12)[0]
        assert check_snf_contract(moved).diagonal == (1 << 100, 3 ** 70 << 100, 0)


REPEATED_FACTORS = [(2,) * 3, (3,) * 5, (23,) * 16, (2, 2, 4, 4, 12), (1, 6, 6, 0, 0)]


@pytest.mark.parametrize("diagonal", REPEATED_FACTORS, ids=str)
def test_snf_of_repeated_factor_diagonals(diagonal):
    # a finished pivot is a floor for the next ones: on these diagonals a
    # later pivot equals it, in the given basis and in random ones, so the
    # scan for it stops early and its divisibility scan is skipped
    rng = random.Random(len(diagonal))
    n = len(diagonal)
    d = IntMatrix.diagonal(diagonal)
    factors = tuple(x for x in diagonal if x > 1)
    for k in range(6):
        a = d if k == 0 else (random_unimodular(rng, n, 3 * n)[0] @ d
                              @ random_unimodular(rng, n, 3 * n)[0])
        assert check_snf_contract(a).diagonal == tuple(sorted(diagonal, key=lambda x: (x == 0, x)))
        assert intlinalg._invariants(a.to_rows(), n) == (factors, diagonal.count(0))


def test_each_pivot_scan_starts_from_the_previous_pivot(monkeypatch):
    # a work counter: on 23 I_16, in any basis, the first pivot is 23 and
    # every later scan is given it as its floor, so it stops at the first
    # entry of 23
    rng = random.Random(16)
    d = IntMatrix.diagonal([23] * 16)
    find = intlinalg._find_pivot
    for a in (d, random_unimodular(rng, 16, 48)[0] @ d @ random_unimodular(rng, 16, 48)[0]):
        floors = []

        def recorded(s, t, m, n, floor):
            floors.append(floor)
            return find(s, t, m, n, floor)

        monkeypatch.setattr(intlinalg, "_find_pivot", recorded)
        assert intlinalg._invariants(a.to_rows(), 16) == ((23,) * 16, 0)
        assert floors == [1] + [23] * 15


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 23])
def test_snf_of_manifold_presentations_in_random_bases(p):
    # the matrices the module and the Tate layer eliminate: the relations,
    # and in their Smith coordinates S and N, [S | diag] and [N | diag],
    # on lens and hempel presentations moved by random unimodular bases;
    # the diagonals of the relations, S and the stacks, which present
    # Ker and Im lattices of the group, do not depend on the basis
    rng = random.Random(p)
    examples = [mfld.example_lens(p)] + [mfld.example_hempel(p, n) for n in (1, 4, 9, 16)]
    for e in examples:
        h1 = e.h1
        one = IntMatrix.identity(h1.ambient_rank)
        expected = None
        for _ in range(3):
            moved = conjugate(h1, *random_unimodular(rng, h1.ambient_rank, 3 * h1.ambient_rank))
            dec = moved.group.smith
            diag = IntMatrix.diagonal(dec.diagonal[:dec.rank], rows=h1.ambient_rank, cols=dec.rank)
            s_op, norm = moved.smith_tau - one, moved.smith_norm
            mats = (moved.group.relations, s_op, s_op.hstack(diag), norm.hstack(diag), norm)
            diagonals = [check_snf_contract(a).diagonal for a in mats]
            assert expected in (None, diagonals[:4])
            expected = diagonals[:4]


def _minor_gcd(a, k):
    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix.from_rows([[a.at(i, j) for j in cols] for i in rows])
            g = gcd(g, det(sub))
    return g


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3).map(IntMatrix.from_rows))
def test_snf_matches_minor_gcds(a):
    # d1 * ... * dk equals the gcd of all k x k minors
    diag = snf(a).diagonal
    assert diag[0] == _minor_gcd(a, 1)
    assert diag[0] * diag[1] == _minor_gcd(a, 2)
    assert diag[0] * diag[1] * diag[2] == abs(det(a))


# -- determinants and inverses -----------------------------------------------


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_by_expansion(a):
    n = a.rows
    if n == 1:
        return a.at(0, 0)
    total = 0
    for j in range(n):
        sub = IntMatrix.from_rows(
            [[a.at(i, jj) for jj in range(n) if jj != j] for i in range(1, n)])
        total += (-1) ** j * a.at(0, j) * _det_by_expansion(sub)
    return total


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n).map(IntMatrix.from_rows)))
def test_det_matches_cofactor_expansion(a):
    assert det(a) == _det_by_expansion(a)


def test_random_unimodular_returns_the_inverse():
    # the test catalog builds its inverses from the operations themselves
    rng = random.Random(7)
    for m in range(1, 7):
        for _ in range(5):
            w, w_inv = random_unimodular(rng, m, 12)
            assert w @ w_inv == IntMatrix.identity(m) == w_inv @ w


# -- lattices ----------------------------------------------------------------


def _assert_membership_agrees(a, cols):
    # the program's route, u @ b reduced modulo the Smith form a group
    # keeps, leaves nonzero exactly the columns that catalog.in_lattice,
    # which runs no cptate elimination, puts outside the column lattice of a
    dec = cokernel(a).smith
    b = IntMatrix.from_columns(cols, a.rows)
    outside = [j for j, c in enumerate(cols) if not in_lattice(a, c)]
    y = intlinalg._reduced_rows(dec.u @ b, dec.diagonal[:dec.rank])
    assert [j for j in range(b.cols) if any(y.entries[j::b.cols])] == outside
    return outside[0] if outside else None


def test_membership_known():
    a = IntMatrix.from_columns([[2, 0], [0, 3]], 2)
    assert _assert_membership_agrees(a, [(4, -3), (0, 0), (1, 0)]) == 2
    assert _assert_membership_agrees(a, [(4, -3), (0, 0)]) is None
    assert _assert_membership_agrees(a, [(-2, 9), (2, 1)]) == 1


def test_membership_agrees_with_the_test_oracle():
    # random lattices, full and low rank, scaled so that their Smith
    # diagonals hold factors above 1; each vector of a lattice is tried
    # with copies moved off it, alone and as columns of one matrix
    rng = random.Random(21)
    outcomes = []
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        if rng.randrange(2):
            a = _random_entries(rng, m, n, 3)
        else:
            a = _low_rank(rng, m, n, rng.randint(0, min(m, n)), 2)
        a = a * rng.choice((1, 2, 6))
        inside = (a @ _random_entries(rng, n, 1, 3)).entries
        cols = [inside] + [tuple(x + rng.randint(-2, 2) for x in inside) for _ in range(3)]
        for c in cols:
            outcomes.append(_assert_membership_agrees(a, [c]))
        rng.shuffle(cols)
        _assert_membership_agrees(a, cols)
    # both answers are common
    assert outcomes.count(None) > 400 and outcomes.count(0) > 400


def _kernel(a):
    """The rows _kernel_rows gives for a, as the columns of a matrix."""
    return IntMatrix.from_columns(intlinalg._kernel_rows(a.to_rows(), a.cols), a.cols)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_columns_annihilated(a):
    k = _kernel(a)
    assert not any((a @ k).entries)
    # completeness: rank(a) + kernel dimension = number of columns
    assert snf(k).rank == a.cols - snf(a).rank
    # saturation: the columns span the whole integer kernel, not a
    # sublattice of finite index in it
    assert cokernel(k).invariant_factors == ()


# -- finitely generated abelian groups ---------------------------------------


def test_cokernel_known():
    assert cokernel(IntMatrix.diagonal([2, 3])).invariant_factors == (6,)
    g = cokernel(IntMatrix.from_columns([[2, 0], [0, 3]], 2))
    assert g.invariant_factors == (6,) and g.free_rank == 0
    assert cokernel(IntMatrix.zeros(3, 0)) == from_invariants((), 3)
    assert str(from_invariants((2, 6), free_rank=1)) == "Z x Z/2 x Z/6"
    assert str(from_invariants((), 0)) == "0"


def test_group_invariants_validation():
    with pytest.raises(ValueError):
        FgAbGroup((2, 3), 0, smith=snf(IntMatrix.zeros(2, 0)))
    # unit factors normalize away rather than erroring
    assert from_invariants((1, 2)) == from_invariants((2,))
    g = from_invariants((2, 4, 4))
    assert g.p_rank(2) == 3 and g.p_rank(3) == 0
    assert g.order == 32


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_cokernel_presentation_invariance(a):
    rng = random.Random(sum(abs(e) for e in a.entries) + a.rows)
    rows = [[1 if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]
    for _ in range(8):
        i, j = rng.randrange(a.rows), rng.randrange(a.rows)
        if i != j:
            k = rng.choice((-1, 1))
            rows[j] = [x + k * y for x, y in zip(rows[j], rows[i])]
    w = IntMatrix.from_rows(rows)
    assert cokernel(w @ a) == cokernel(a)
    # appending a column already in the lattice changes nothing
    widened = a.hstack(a @ IntMatrix(a.cols, 1, (1,) * a.cols))
    assert cokernel(widened) == cokernel(a)


def test_formal_order_of_infinite_group():
    assert from_invariants((), 2).order is None
    assert from_invariants((4,)).order == 4


# -- subquotients -------------------------------------------------------------


def _subquotient(group, ker_of, im_of):
    """Ker(ker_of) / Im(im_of) in group, by the engine the Tate layer runs."""
    ((rows, cols),) = intlinalg._subquotient_relations(group, ker_of, (im_of,))
    return cokernel(IntMatrix.from_rows(rows, cols=cols))


def test_subquotient_kernel_of_doubling_mod_four():
    g = from_invariants((4, 4))
    two = 2 * IntMatrix.identity(2)
    h = _subquotient(g, two, IntMatrix.zeros(2, 2))
    assert h.invariant_factors == (2, 2) and h.free_rank == 0


def test_subquotient_whole_group_and_trivial():
    g = from_invariants((4, 4))
    zero = IntMatrix.zeros(2, 2)
    whole = _subquotient(g, zero, zero)
    assert whole == g
    ident = IntMatrix.identity(2)
    # the identity's image escapes its kernel, 0
    with pytest.raises(CompositeNotZero, match="escapes the numerator lattice"):
        _subquotient(g, ident, ident)
    # ker(identity) mod image zero is the trivial group
    nothing = _subquotient(g, ident, zero)
    assert nothing.is_trivial


def test_subquotient_free_case():
    g = from_invariants((), 2)
    # x = y line inside Z^2, quotient by the image of (x, y) -> (x+y, x+y)
    ker_of = IntMatrix.from_rows([[1, -1], [0, 0]])
    im_of = IntMatrix.from_rows([[1, 1], [1, 1]])
    h = _subquotient(g, ker_of, im_of)
    assert h.is_trivial

    # same kernel, image doubled: quotient is Z/2
    h2 = _subquotient(g, ker_of, 2 * im_of)
    assert h2.invariant_factors == (2,) and h2.free_rank == 0
