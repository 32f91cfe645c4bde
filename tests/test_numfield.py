import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cptate import (
    AboveLimit,
    CubicRecord,
    IntMatrix,
    MalformedRecord,
    NotReal,
    NotSquareFree,
    ReductionLimit,
    class_group,
    class_number,
    classify_prime,
    cokernel,
    cubic_rank_check,
    field_report,
    fundamental_unit,
    gauss_identity,
    h0_and_fixed_points,
    kronecker,
    narrow_class_invariants,
    nine_fields_check,
    quadratic_field,
    ramification,
    report_to_dict,
    splitting_density,
    tate,
    unit_module,
)
from cptate import numfield
from cptate.numfield import (
    HEEGNER_DS,
    _class_data,
    _compose_raw,
    _decode,
    _definite_inverse,
    _definite_reduce,
    _indefinite_reduce,
    _prime_forms,
    _principal_form,
    _relation_lattice,
    _walk_cycle,
    factorize,
    is_prime,
    is_squarefree,
    primes_upto,
    scan_cubic_csv,
)
from catalog import in_lattice
from test_reduced_forms import oracle_cycles, oracle_forms_negative


def squarefree_range(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and is_squarefree(d)]


# -- arithmetic helpers -------------------------------------------------------


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factorize_and_squarefree():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-84) == {2: 2, 3: 1, 7: 1}
    assert is_squarefree(30) and is_squarefree(-1)
    assert not is_squarefree(12) and not is_squarefree(-8)
    assert not is_squarefree(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2000, 2000).filter(lambda a: a != 0),
       st.sampled_from([3, 5, 7, 11, 13, 101, 997]))
def test_kronecker_matches_euler_criterion(a, q):
    # (a/q) for odd prime q via Euler's criterion
    e = pow(a % q, (q - 1) // 2, q)
    want = 0 if a % q == 0 else (1 if e == 1 else -1)
    assert kronecker(a, q) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300),
       st.integers(1, 200))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_special_values():
    assert kronecker(5, 1) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(2, 2) == 0
    # (2/n) for odd n depends on n mod 8
    assert kronecker(2, 7) == 1
    assert kronecker(2, 3) == -1
    # sign part: (-1/n) = (-1)^((n-1)/2)
    assert kronecker(-1, 3) == -1
    assert kronecker(-1, 5) == 1


# -- fields and ramification ---------------------------------------------------


def test_quadratic_field_validation():
    with pytest.raises(NotSquareFree):
        quadratic_field(12)
    with pytest.raises(NotSquareFree):
        quadratic_field(-8)
    with pytest.raises(NotSquareFree):
        quadratic_field(0)
    with pytest.raises(NotSquareFree):
        quadratic_field(1)


def test_fields_above_the_limit_are_refused_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) ran")

    monkeypatch.setattr(numfield, "factorize", no_factoring)
    for d in (numfield.MAX_ABS_D + 1, -(10**21 + 39)):
        with pytest.raises(AboveLimit, match=f"d = {d}: "):
            field_report(d)


def test_discriminant_convention():
    assert quadratic_field(5).discriminant == 5
    assert quadratic_field(-3).discriminant == -3
    assert quadratic_field(10).discriminant == 40
    assert quadratic_field(-1).discriminant == -4
    assert quadratic_field(-21).discriminant == -84


@pytest.mark.parametrize("d,finite,s0,s_inf,s", [
    (-21, (2, 3, 7), 3, 1, 4),
    (10, (2, 5), 2, 0, 2),
    (-1, (2,), 1, 1, 2),
    (5, (5,), 1, 0, 1),
    (34, (2, 17), 2, 0, 2),
    (-163, (163,), 1, 1, 2),
])
def test_ramification_pins(d, finite, s0, s_inf, s):
    r = ramification(d)
    assert r.finite_ramified == finite
    assert (r.s0, r.s_inf, r.s) == (s0, s_inf, s)


def test_classify_prime():
    assert classify_prime(-1, 2) == "ramified"
    assert classify_prime(-1, 5) == "split"
    assert classify_prime(-1, 3) == "inert"
    assert classify_prime(5, 5) == "ramified"
    assert classify_prime(5, 11) == "split"
    assert classify_prime(5, 2) == "inert"
    with pytest.raises(ValueError):
        classify_prime(5, 6)


def test_ramified_exactly_when_kronecker_vanishes():
    for d in (-21, -1, 5, 10, 34):
        D = quadratic_field(d).discriminant
        for q in primes_upto(50):
            want = "ramified" if D % q == 0 else None
            got = classify_prime(d, q)
            if want:
                assert got == want
            else:
                assert got in ("split", "inert")


# -- class groups --------------------------------------------------------------

# class numbers from the standard tables of imaginary and real
# quadratic fields
CLASSICAL_H = {
    -1: 1, -2: 1, -3: 1, -5: 2, -14: 4, -21: 4, -23: 3,
    -31: 3, -39: 4, -47: 5, -71: 7,
    2: 1, 5: 1, 10: 2, 15: 2, 34: 2, 79: 3, 82: 4, 145: 4,
    223: 3, 229: 3,
}


def test_class_numbers_against_classical_table():
    for d, h in CLASSICAL_H.items():
        assert class_number(d) == h, f"d = {d}"


def test_class_group_invariants_known_structures():
    # genus theory: -21 has three ramified finite primes, so 2-rank 2
    assert _class_data(-21).invariants == (2, 2)
    assert _class_data(-14).invariants == (4,)
    assert _class_data(-23).invariants == (3,)
    assert _class_data(-47).invariants == (5,)
    assert _class_data(-5).invariants == (2,)
    assert _class_data(5).invariants == ()
    assert _class_data(-3299).invariants == (3, 9)
    assert _class_data(-4027).invariants == (3, 3)
    assert _class_data(-1365).invariants == (2, 2, 2, 2)
    assert _class_data(-15015).invariants == (2, 2, 2, 12)


def dirichlet_h(D):
    # class number of an imaginary quadratic field of discriminant D < -4
    # from the analytic class number formula in finite form
    total = sum(kronecker(D, a) * a for a in range(1, -D))
    assert total % D == 0
    return abs(total // D)


def test_class_numbers_against_dirichlet_formula():
    for d in squarefree_range(-300, -2):
        D = quadratic_field(d).discriminant
        if D >= -4:
            continue
        assert class_number(d) == dirichlet_h(D), f"d = {d}"


def sieved_dirichlet_h(D):
    """h(D) for a fundamental D < -4 from h = (2 - chi(2))^-1 times the sum
    of chi(a) over 0 < a < |D|/2, chi = (D/.). chi is completely
    multiplicative, so it is sieved from its values at primes (Euler's
    criterion at odd p) over a smallest-prime-factor table; shares no code
    with numfield."""
    n = -D // 2 + 1
    spf = list(range(n))
    for p in range(math.isqrt(n - 1), 1, -1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            spf[p * p::p] = [p] * len(range(p * p, n, p))
    chi2 = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    chi = [0, 1] + [0] * (n - 2)
    for a in range(2, n):
        p = spf[a]
        if p < a:
            chi[a] = chi[p] * chi[a // p]
        elif p == 2:
            chi[a] = chi2
        else:
            e = pow(D, (p - 1) // 2, p)
            chi[a] = 0 if e == 0 else (1 if e == 1 else -1)
    h, r = divmod(sum(chi), 2 - chi2)
    assert r == 0
    return h


def test_class_numbers_against_sieved_dirichlet_near_a_million():
    for d in squarefree_range(-300, -5):
        D = quadratic_field(d).discriminant
        assert sieved_dirichlet_h(D) == dirichlet_h(D), f"d = {d}"
    # -t = 1 (mod 4), so D = -t and the sum runs over a < t/2
    ts = [t for t in range(10**6 + 3, 10**6 + 60, 4) if is_squarefree(t)][:4]
    assert len(ts) == 4
    for t in ts:
        assert class_number(-t) == sieved_dirichlet_h(-t), f"d = {-t}"


def test_class_group_module_is_inversion():
    cl = class_group(-21)
    assert cl.p == 2
    assert cl.group.invariant_factors == (2, 2)
    co = tate(cl)
    # inversion fixes 2-torsion pointwise
    assert co.dim_h0 == 2
    assert co.dim_h1 == 2
    assert h0_and_fixed_points(cl)[1].invariant_factors == (2, 2)


def test_h0_of_class_group_is_two_torsion():
    for d in squarefree_range(-80, 80):
        data = _class_data(d)
        two_rank = sum(1 for f in data.invariants if f % 2 == 0)
        assert tate(class_group(d)).dim_h0 == two_rank, f"d = {d}"


def _trial_primes(n):
    """The distinct primes of |n| by plain trial division, and whether a
    square divides n; shares no code with numfield.factorize."""
    n, primes, square = abs(n), [], False
    q = 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            square = square or n % q == 0
            while n % q == 0:
                n //= q
            primes.append(q)
        q += 1
    return primes + ([n] if n > 1 else []), square


def _genus_two_rank(d):
    # Gauss's genus theory: the narrow class group has 2-rank omega(D) - 1,
    # and it is the class group when d < 0; for d > 0 the class group has
    # one 2 fewer exactly when a prime = 3 (mod 4) divides D
    primes, _ = _trial_primes(d if d % 4 == 1 else 4 * d)
    if d > 0 and any(q % 4 == 3 for q in primes):
        return len(primes) - 2
    return len(primes) - 1


def test_class_cohomology_against_genus_theory_near_a_million():
    ts = [t for t in range(10**6 + 1, 10**6 + 40) if not _trial_primes(t)[1]][:8]
    assert len(ts) == 8
    for d in [s * t for t in ts for s in (1, -1)]:
        rank = _genus_two_rank(d)
        data = _class_data(d)
        assert data.dim_h0_cl == data.dim_h1_cl == rank, f"d = {d}"
        assert data.fixed_invariants == (2,) * rank, f"d = {d}"


def check_structure_by_solution_counts(classes, op, e, invariants, label):
    # the number of x with x^n = 1 for every n | h determines a finite
    # abelian group; here it is counted by plain repeated composition, and
    # in a group with invariant factors f it is the product of gcd(n, f)
    orders = []
    for f in classes:
        x, k = f, 1
        while x != e:
            x, k = op(x, f), k + 1
        orders.append(k)
    for n in range(1, len(classes) + 1):
        if len(classes) % n == 0:
            count = sum(1 for k in orders if n % k == 0)
            assert count == math.prod(math.gcd(n, f) for f in invariants), f"{label}, n = {n}"


def test_class_group_structure_against_solution_counts():
    for d in squarefree_range(-1000, -2):
        D = quadratic_field(d).discriminant

        def op(x, y):
            return _definite_reduce(_compose_raw(x, y, D), D)

        check_structure_by_solution_counts(
            oracle_forms_negative(D), op, _definite_reduce(_principal_form(D), D),
            _class_data(d).invariants, f"d = {d}")


def narrow_class_group(D):
    """Classes of forms of discriminant D > 0 as the least forms of the
    oracle's cycles, with the composition law, the inverse (a, -b, c) and
    the identity on them."""
    sq = math.isqrt(D)
    label = {f: min(cycle) for cycle in oracle_cycles(D) for f in cycle}

    def cls(f):
        return label[_indefinite_reduce(f, D, sq)]

    classes = sorted(set(label.values()))
    return (classes, lambda x, y: cls(_compose_raw(x, y, D)),
            lambda x: cls((x[0], -x[1], x[2])), cls(_principal_form(D)))


def test_narrow_class_group_structure_against_solution_counts():
    # the real-field twin of the test above, on the oracle's cycles
    for d in squarefree_range(2, 1000):
        classes, op, _, e = narrow_class_group(quadratic_field(d).discriminant)
        check_structure_by_solution_counts(classes, op, e, _class_data(d).narrow_invariants,
                                           f"d = {d}")


def test_walk_labels_each_cycle_and_its_mirror_in_half_a_cycle():
    # the walk returns the cycle and its mirror, the inverse class's cycle;
    # on a cycle that is its own mirror it visits half the forms, taking
    # one more step at the start, wherever on the cycle it starts
    for d in squarefree_range(2, 3000):
        D = quadratic_field(d).discriminant
        sq = math.isqrt(D)
        M = sq + 1
        for cycle in oracle_cycles(D):
            forms = {a * M + b for a, b, _ in cycle}
            mirror = {c * M + b for a, b, c in cycle}
            L = len(cycle)
            for f in cycle if mirror == forms else cycle[:1]:
                keys, mirrors, ambiguous = _walk_cycle(f, D, sq, M)
                assert ambiguous == (mirror == forms), (d, f)
                if ambiguous:
                    assert len(keys) + 1 <= L // 2 + 1, (d, f)
                    assert set(keys + mirrors) == forms, (d, f)
                else:
                    assert len(keys) == L, (d, f)
                    assert set(keys) == forms and set(mirrors) == mirror, (d, f)
                # keys order like forms, so the least key names the least form
                a, b = divmod(min(keys + mirrors) if ambiguous else min(keys), M)
                assert (a, b) == min(cycle)[:2], (d, f)


def test_definite_inverse_is_the_reduced_mirror():
    # every reduced form of every fundamental discriminant -20000 <= D < 0
    count = 0
    for d in squarefree_range(-20000, -1):
        D = quadratic_field(d).discriminant
        if D < -20000:
            continue
        for a, b, c in oracle_forms_negative(D):
            assert _definite_inverse((a, b, c)) == _definite_reduce((c, b, a), D), (D, a, b, c)
            count += 1
    assert count > 250000


@pytest.mark.parametrize("d", [-14, -1365, -3299, 15, 219, 2410, 15015])
def test_relation_lattice_coordinates_are_a_homomorphism(d):
    D = quadratic_field(d).discriminant
    if d < 0:
        classes = oracle_forms_negative(D)
        ident = _definite_reduce(_principal_form(D), D)

        def op(x, y):
            return _definite_reduce(_compose_raw(x, y, D), D)

        def inv(x):
            return _definite_reduce((x[0], -x[1], x[2]), D)
    else:
        classes, op, inv, ident = narrow_class_group(D)
    width = 2 * abs(D)
    codes, rows = _relation_lattice(classes, op, inv, ident, width)
    # k rows of k entries; the relations are their columns
    assert all(len(r) == len(rows) for r in rows)
    rel = IntMatrix.from_rows(rows, cols=len(rows))
    assert len(codes) == len(classes) == cokernel(rel).order

    def coords(x):
        return _decode(codes[x], width, rel.rows)

    for x in classes:
        total = [a + b for a, b in zip(coords(x), coords(inv(x)))]
        assert in_lattice(rel, total), x
        for y in classes:
            diff = [a - b - c for a, b, c in zip(coords(op(x, y)), coords(x), coords(y))]
            assert in_lattice(rel, diff), (x, y)


def _invariant_chains(order_max, chain=(), order=1):
    """Every chain n_1 | n_2 | ... of factors >= 2 with product <= order_max,
    the empty chain included."""
    yield chain
    step = chain[-1] if chain else 1
    for n in range(max(step, 2), order_max // order + 1, step):
        yield from _invariant_chains(order_max, chain + (n,), order * n)


def test_relation_lattice_on_abstract_abelian_groups():
    # Z/m_1 x ... x Z/m_k as tuples, every element offered in a shuffled
    # order; the diagonal of the triangular relations is each generator's
    # order over the span before it. The width is twice the exponent,
    # which bounds every such order; Z/2 x Z/997, that is Z/1994, takes
    # its first generator's coordinates down to -997, so the balanced
    # decoding meets digits far below zero
    diagonals = set()
    chains = list(_invariant_chains(64))
    # one chain per abelian group of order <= 64: the sum over n of the
    # product of the partition numbers of n's prime exponents
    assert len(chains) == 117
    least = 0
    for moduli, invariants in [(c, c) for c in chains] + [((2, 997), (1994,))]:
        width = 2 * max(invariants, default=1)
        elements = [()]
        for m in moduli:
            elements = [x + (t,) for x in elements for t in range(m)]
        random.Random(repr(moduli)).shuffle(elements)

        def op(x, y):
            return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

        def inv(x):
            return tuple(-a % m for a, m in zip(x, moduli))

        codes, rows = _relation_lattice(elements, op, inv, (0,) * len(moduli), width)
        rel = IntMatrix.from_rows(rows, cols=len(rows))
        assert cokernel(rel).invariant_factors == invariants
        assert len(codes) == len(elements)
        diagonals.update(rel.at(j, j) for j in range(rel.rows))

        def coords(x):
            return _decode(codes[x], width, rel.rows)

        # a map that is additive on every generator e_j is a homomorphism
        units = [tuple(int(i == j) for i in range(len(moduli))) for j in range(len(moduli))]
        for x in elements:
            c = coords(x)
            assert sum(t * width ** j for j, t in enumerate(c)) == codes[x], (moduli, x)
            least = min([least, *c])
            for y in units:
                diff = [a - b - e for a, b, e in zip(coords(op(x, y)), c, coords(y))]
                assert in_lattice(rel, diff), (moduli, x, y)
    assert 2 in diagonals and 4 in diagonals and {3, 5, 7} <= diagonals
    assert least == -997


def _xgcd(a, b):
    # (g, x, y) with a x + b y = g = gcd(a, b) >= 0, by the extended
    # Euclidean algorithm that _compose_raw once ran
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _dirichlet_compose(f1, f2, D):
    # the general formula through two extended gcds, the one path that
    # _compose_raw had before its gcd(a1, a2) = 1 case
    a1, b1, _ = f1
    a2, b2, _ = f2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, (b1 + b2) // 2)
    a3 = (a1 * a2) // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * abs(a3)
    return (a3, b3, (b3 * b3 - D) // (4 * a3))


@pytest.mark.parametrize("d", [-21, -26, -1365, -3299, -19999, 15, 79, 219, 2410, 15015])
def test_composition_with_coprime_leading_coefficients(d):
    D = quadratic_field(d).discriminant
    if d < 0:
        forms = oracle_forms_negative(D)

        def cls(f):
            return _definite_reduce(f, D)
    else:
        sq = math.isqrt(D)
        label = {f: min(cycle) for cycle in oracle_cycles(D) for f in cycle}
        forms = sorted(label)

        def cls(f):
            return label[_indefinite_reduce(f, D, sq)]
    pairs = [(f, g) for f in forms for g in forms if math.gcd(f[0], g[0]) == 1]
    assert any(abs(f[0]) > 1 and abs(g[0]) > 1 for f, g in pairs)
    for f, g in pairs:
        assert cls(_compose_raw(f, g, D)) == cls(_dirichlet_compose(f, g, D)), (f, g)


def test_composition_with_common_factors_matches_the_extended_gcd_formula():
    # b3 is unique modulo 2|a3|, so the Bezout coefficients from modular
    # inverses give the very form the extended-gcd ones give
    pairs = []
    for d in squarefree_range(-400, 400):
        D = quadratic_field(d).discriminant
        forms = oracle_forms_negative(D) if d < 0 else [f for c in oracle_cycles(D) for f in c]
        pairs += [(f, g, D) for f in forms for g in forms if math.gcd(f[0], g[0]) > 1]
    for d in (-1000001, -1000005, 1000003, 1000005, -4999999, 4999997):
        D = quadratic_field(d).discriminant
        primes = _prime_forms(D, 60)
        products = [_compose_raw(f, g, D) for f in primes for g in primes]
        pairs += [(f, g, D) for f in primes + products for g in primes
                  if math.gcd(f[0], g[0]) > 1]
    assert len(pairs) > 5000
    assert any((f[1] + g[1]) // 2 == 0 for f, g, _ in pairs)
    assert any(f[0] < 0 and g[0] < 0 for f, g, _ in pairs)
    for f, g, D in pairs:
        assert _compose_raw(f, g, D) == _dirichlet_compose(f, g, D), (f, g, D)


# -- composition of definite forms ---------------------------------------------


@pytest.mark.parametrize("D", [-23, -47, -56, -71, -84])
def test_definite_composition_group_laws(D):
    forms = oracle_forms_negative(D)
    e = _definite_reduce(_principal_form(D), D)
    index = {f: i for i, f in enumerate(forms)}

    def mul(f, g):
        return _definite_reduce(_compose_raw(f, g, D), D)

    for f in forms:
        assert mul(e, f) == f
        inv = _definite_reduce((f[0], -f[1], f[2]), D)
        assert mul(f, inv) == e
        for g in forms:
            h = mul(f, g)
            assert h in index
            assert mul(g, f) == h
    if len(forms) <= 6:
        triples = [(f, g, k) for f in forms for g in forms for k in forms]
    else:
        rng = random.Random(D)
        triples = [tuple(rng.choice(forms) for _ in range(3)) for _ in range(60)]
    for f, g, k in triples:
        assert mul(mul(f, g), k) == mul(f, mul(g, k))


def test_form_counts_match_class_numbers():
    for d in (-1, -5, -14, -23, -47, -71):
        D = quadratic_field(d).discriminant
        assert len(oracle_forms_negative(D)) == class_number(d)


# -- units ----------------------------------------------------------------------


def brute_unit(d):
    # minimal u, v > 0 with u^2 - d v^2 = -4 or +4, checking -4 first
    v = 0
    while True:
        v += 1
        for n in (-4, 4):
            t = d * v * v + n
            if t <= 0:
                continue
            u = math.isqrt(t)
            if u * u == t:
                if d % 4 == 1:
                    return (u - v) // 2, v, n // 4
                return u // 2, v // 2, n // 4


def test_units_against_brute_force():
    for d in squarefree_range(2, 100):
        x, y, norm = brute_unit(d)
        unit = fundamental_unit(d)
        assert (unit.x, unit.y, unit.norm) == (x, y, norm), f"d = {d}"


def pell4_from_full_convergents(d):
    # the convergent walk of sqrt(d), testing p^2 - d q^2 on the
    # convergents themselves at every step
    sq = math.isqrt(d)
    P, Q, a = 0, 1, sq
    p0, q0, p1, q1 = 1, 0, sq, 1
    while True:
        n = p1 * p1 - d * q1 * q1
        if n in (1, -1):
            return 2 * p1, 2 * q1
        if n in (4, -4) and d % 4 == 1:
            return p1, q1
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (P + sq) // Q
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0


def test_pell4_reads_the_norm_off_the_continued_fraction():
    band = squarefree_range(17, 3000) + squarefree_range(10**6, 10**6 + 60)
    for d in band:
        assert numfield._pell4(d) == pell4_from_full_convergents(d), f"d = {d}"


def test_unit_pins():
    # hand-checked small units
    assert fundamental_unit(2) == fundamental_unit(2).__class__(d=2, x=1, y=1, norm=-1)
    u5 = fundamental_unit(5)
    assert (u5.x, u5.y, u5.norm) == (0, 1, -1)
    u94 = fundamental_unit(94)
    assert (u94.x, u94.y, u94.norm) == (2143295, 221064, 1)
    u61 = fundamental_unit(61)
    assert (u61.x, u61.y, u61.norm) == (17, 5, -1)
    with pytest.raises(NotReal):
        fundamental_unit(-2)


def test_reduction_cap_raises_a_typed_error_naming_d(monkeypatch):
    # a rho that never moves leaves an unreduced form unreduced
    D = 4 * 10
    f = (3, -2, -3)
    assert not numfield._is_reduced_indefinite(f, D)
    monkeypatch.setattr(numfield, "_rho", lambda f, D, sq: f)
    with pytest.raises(ReductionLimit, match="D = 40"):
        _indefinite_reduce(f, D, math.isqrt(D))
    assert issubclass(ReductionLimit, RuntimeError)


def test_unit_h1_dims():
    # units mod torsion: rank one with tau = -1 when real, trivial when imaginary
    assert tate(unit_module(10)).dim_h1 == 1
    assert tate(unit_module(-5)).dim_h1 == 0
    assert tate(unit_module(-1)).dim_h1 == 0


def test_narrow_class_number_cross_identity():
    # the narrow count from indefinite cycles must equal h or 2h according
    # to the norm of the fundamental unit; this ties the form enumeration
    # to the continued fraction computation
    for d in squarefree_range(2, 300):
        data = _class_data(d)
        h, hplus = data.class_number, math.prod(data.narrow_invariants)
        factor = 1 if fundamental_unit(d).norm == -1 else 2
        assert hplus == h * factor, f"d = {d}"
        assert data.unit_norm == fundamental_unit(d).norm, f"d = {d}"


def test_narrow_invariants_pins():
    assert narrow_class_invariants(3) == (2,)
    assert narrow_class_invariants(5) == ()
    assert narrow_class_invariants(10) == (2,)
    assert narrow_class_invariants(15) == (2, 2)
    assert narrow_class_invariants(34) == (4,)
    # the wide group is not a direct factor of the narrow one here
    for d, wide, narrow in ((219, (4,), (2, 4)), (410, (2, 2), (2, 4)),
                            (2410, (2, 4), (2, 8)),
                            (15015, (2, 2, 2, 2), (2, 2, 2, 2, 2))):
        assert _class_data(d).invariants == wide, f"d = {d}"
        assert narrow_class_invariants(d) == narrow, f"d = {d}"
    with pytest.raises(NotReal):
        narrow_class_invariants(-5)


# -- the global checks -----------------------------------------------------------


def test_check_pins_small_fields():
    checks = field_report(-21).checks
    c = checks["upper_nf"]
    assert (c.lhs, c.rhs, c.passed) == (3, 3, True)
    c = checks["lower_nf"]
    assert (c.lhs, c.rhs, c.passed) == (4, 3, True)
    c = checks["cor_lower"]
    assert (c.lhs, c.rhs, c.passed) == (2, 3, True)
    c = field_report(-1).checks["upper_nf"]
    assert (c.lhs, c.rhs, c.passed) == (1, 1, True)
    c = field_report(10).checks["lower_nf"]
    assert (c.lhs, c.rhs, c.passed) == (2, 2, True)
    # a field's verdicts always have their hypotheses met
    for d in (-21, -1, 10):
        for c in field_report(d).checks.values():
            assert c is None or (c.hypotheses_met and c.passed == c.bare_holds)


def gauss(d):
    return field_report(d).checks["gauss_identity"]


def test_gauss_identity_pins():
    c = gauss(10)
    assert (c.lhs, c.rhs, c.passed) == (1, 1, True)
    c = gauss(3)
    assert (c.lhs, c.rhs, c.passed) == (2, 2, True)
    with pytest.raises(NotReal):
        gauss_identity(ramification(-5), _class_data(-5))


def test_gauss_identity_smallest_failure_is_34():
    # -1 = (3/5)^2 - 34 (1/5)^2 is a rational norm from Q(sqrt(34)), yet
    # the fundamental unit 35 + 6 sqrt(34) has norm +1, so the unit-norm
    # prediction overshoots: the check must report this honestly
    for d in squarefree_range(2, 33):
        assert gauss(d).passed, f"d = {d}"
    c = gauss(34)
    assert not c.passed
    assert (c.lhs, c.rhs) == (1, 2)


def test_gauss_witness_is_a_rational_point():
    assert numfield.gauss_witness(34) == (3, 5)
    assert numfield.gauss_witness(2) == (1, 1)
    for d in squarefree_range(2, 500):
        point = numfield.gauss_witness(d)
        # d is a sum of two squares iff no prime 3 mod 4 divides it
        assert (point is None) == any(q % 4 == 3 for q in factorize(d)), f"d = {d}"
        if point is not None:
            x, z = point
            assert 0 < x <= z and x * x - d == -z * z


def test_gauss_value_range_and_one_sidedness():
    # the computed value always lands in {1, 2}; whenever the unit has
    # norm -1 the value is 1; any mismatch is one-sided (value 1 vs 2)
    for d in squarefree_range(2, 500):
        c = gauss(d)
        assert c.lhs in (1, 2), f"d = {d}"
        if fundamental_unit(d).norm == -1:
            assert c.lhs == 1 and c.passed, f"d = {d}"
        if not c.passed:
            assert (c.lhs, c.rhs) == (1, 2), f"d = {d}"


def test_gauss_value_detects_rational_norms():
    # value 1 happens exactly when -1 is a norm from the field, which by
    # Hilbert symbols means every odd prime dividing d is 1 mod 4; the
    # unit-norm prediction asks for the stronger integral condition, and
    # the gap between the two is exactly where the check fails
    for d in squarefree_range(2, 500):
        c = gauss(d)
        rational = all(q % 4 == 1 for q in factorize(d) if q != 2)
        assert (c.lhs == 1) == rational, f"d = {d}"
        data = _class_data(d)
        integral = math.prod(data.narrow_invariants) == data.class_number
        assert c.passed == (rational == integral), f"d = {d}"


def test_nine_fields():
    assert nine_fields_check(-200) == HEEGNER_DS
    assert nine_fields_check(-50) == (-1, -2, -3, -7, -11, -19, -43)
    with pytest.raises(ValueError):
        nine_fields_check(7)


# -- splitting densities ----------------------------------------------------------


def test_splitting_density_pins():
    s = splitting_density(-1, 100)
    assert (s.split, s.inert, s.ramified, s.total) == (11, 13, 1, 25)
    s = splitting_density(5, 100)
    assert (s.split, s.inert, s.ramified, s.total) == (10, 14, 1, 25)
    assert float(s.fraction) == 10 / 25


def test_splitting_counts_are_exhaustive():
    for d in (-23, 10):
        s = splitting_density(d, 500)
        assert s.split + s.inert + s.ramified == s.total == len(primes_upto(500))
        assert s.ramified == ramification(d).s0


# -- cyclic cubic records -----------------------------------------------------------


def test_cubic_rank_check_happy_paths():
    assert cubic_rank_check(CubicRecord(7, ())).passed
    assert cubic_rank_check(CubicRecord(9, ())).passed
    c = cubic_rank_check(CubicRecord(63, (3,)))
    assert (c.lhs, c.rhs, c.passed) == (1, 1, True)
    assert CubicRecord(63, (3,)).s == 2
    # 3-rank ignores coprime torsion
    assert cubic_rank_check(CubicRecord(13, (2,))).passed


# each record is built inside the test, since building an invalid one raises
@pytest.mark.parametrize("record,fragment", [
    ((21, ()), "exponent 1"),
    ((5, ()), "not 1 mod 3"),
    ((49, ()), "repeated prime"),
    ((27, ()), "exponent 3"),
    ((1, ()), "out of range"),
    ((10**21 + 39, ()), "conductor 1000000000000000000039 out of range"),
    ((63, (2, 3)), "divisibility chain"),
    ((63, (1, 3)), "out of range"),
    ((63, ("3",)), "out of range"),
])
def test_cubic_rank_check_rejects(record, fragment):
    with pytest.raises(MalformedRecord, match=fragment):
        CubicRecord(*record)


def test_scan_cubic_csv(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text(
        "conductor,class_invariants\n7,\n9,\n13,\n63,3\n117,3\n",
        encoding="utf-8",
    )
    assert [(n, r.conductor, r.invariants) for n, r in scan_cubic_csv(good)] == [
        (2, 7, ()), (3, 9, ()), (4, 13, ()), (5, 63, (3,)), (6, 117, (3,)),
    ]
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("7,\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="bad header"):
        list(scan_cubic_csv(headerless))
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="bad header"):
        list(scan_cubic_csv(empty))


def test_scan_cubic_csv_reports_bad_rows_with_line_numbers(tmp_path):
    mixed = tmp_path / "mixed.csv"
    mixed.write_text(
        "conductor,class_invariants\n7,\nseven,\n\n63,3;x\n9,\n63,3,extra\n21,\n",
        encoding="utf-8",
    )
    items = list(scan_cubic_csv(mixed))
    # the line number is the item's, and the message does not repeat it
    assert [lineno for lineno, _ in items] == [2, 3, 5, 6, 7, 8]
    assert [type(item) for _, item in items] == [
        CubicRecord, MalformedRecord, MalformedRecord, CubicRecord, MalformedRecord,
        MalformedRecord,
    ]
    assert str(items[1][1]) == "conductor 'seven' is not an integer"
    assert "unparseable" in str(items[2][1])
    assert items[3][1].conductor == 9
    assert str(items[4][1]) == "expected 2 fields, got 3"
    assert "exponent 1" in str(items[5][1])


# -- reports -------------------------------------------------------------------------


def test_field_report_round_trips_to_json():
    rep = field_report(10)
    doc = json.loads(json.dumps(report_to_dict(rep)))
    assert doc["d"] == 10
    assert doc["discriminant"] == 40
    assert (doc["s0"], doc["s_inf"], doc["s"]) == (2, 0, 2)
    assert doc["class_invariants"] == [2]
    assert doc["class_number"] == 2
    assert doc["narrow_invariants"] == [2]
    assert doc["dim_h0_cl"] == 1
    assert doc["unit_norm"] == -1
    assert doc["unit_h1_dim"] == 1
    for name in ("upper_nf", "lower_nf", "gauss_identity", "cor_lower"):
        c = doc["checks"][name]
        assert c["pass"] is True
        assert isinstance(c["lhs"], int) and isinstance(c["rhs"], int)


def test_field_report_imaginary_omits_unit():
    doc = report_to_dict(field_report(-5))
    assert doc["unit_norm"] is None
    assert doc["checks"]["gauss_identity"] is None
    assert doc["unit_h1_dim"] == 0
    assert doc["s_inf"] == 1


def test_is_prime_small():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
