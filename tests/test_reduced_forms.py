"""The class numbers that numfield reads off prime forms, against the
plain enumeration oracle below: loop over b, take a over the divisors of
(b^2 - D)/4 by trial division, and for D > 0 walk the reduced forms' cycles
with this module's own rho. The oracle is O(|D|) and shares no code with
numfield."""

import math

from cptate.numfield import (
    _SQRT_TABLE_CAP,
    _class_data,
    _prime_forms,
    _sqrt_mod_prime,
    _sqrt_table,
    class_number,
    is_squarefree,
    kronecker,
    primes_upto,
    quadratic_field,
)


def oracle_forms_negative(D):
    """Reduced positive definite forms: -a < b <= a <= c, b >= 0 when a == c."""
    forms = []
    b = D & 1
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                forms.append((a, b, c))
                if 0 < b < a < c:
                    forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms)


def oracle_forms_positive(D):
    """Reduced indefinite forms: 0 < b < sqrt(D), |sqrt(D) - 2|a|| < b."""
    sq = math.isqrt(D)
    forms = []
    b = 2 if D % 2 == 0 else 1
    while b <= sq:
        m4 = D - b * b
        if m4 % 4 == 0:
            m = m4 // 4
            a = 1
            while a * a <= m:
                if m % a == 0:
                    for aa in {a, m // a}:
                        t = 2 * aa
                        if (t + b) ** 2 > D and (t <= b or (t - b) ** 2 < D):
                            forms.append((aa, b, -(m // aa)))
                            forms.append((-aa, b, m // aa))
                a += 1
        b += 2
    return sorted(set(forms))


def oracle_forms(D):
    return oracle_forms_negative(D) if D < 0 else oracle_forms_positive(D)


def oracle_cycles(D):
    """The reduced indefinite forms of D > 0, split into their cycles. The
    next form after (a, b, c) is (c, b', *) with b' = -b (mod 2|c|) and
    sqrt(D) - 2|c| < b' < sqrt(D)."""
    sq = math.isqrt(D)
    left = set(oracle_forms_positive(D))
    cycles = []
    while left:
        f = min(left)
        cycle = [f]
        while True:
            _, b, c = cycle[-1]
            t = 2 * abs(c)
            b2 = t * ((sq + b) // t) - b
            g = (c, b2, (b2 * b2 - D) // (4 * c))
            if g == f:
                break
            cycle.append(g)
        left.difference_update(cycle)
        cycles.append(cycle)
    return cycles


def _fields(ts):
    return [d for t in ts for d in (-t, t) if d != 1 and is_squarefree(d)]


def _check_class_numbers(d):
    # h is the number of reduced forms for d < 0; h+ is the number of
    # cycles for d > 0
    D = quadratic_field(d).discriminant
    if d < 0:
        assert class_number(d) == len(oracle_forms_negative(D)), f"d = {d}"
    else:
        assert math.prod(_class_data(d).narrow_invariants) == len(oracle_cycles(D)), f"d = {d}"


def test_class_numbers_match_the_oracle_up_to_5000():
    for d in _fields(range(1, 5001)):
        _check_class_numbers(d)


def test_class_numbers_match_the_oracle_near_10_to_the_5():
    ts = [t for t in range(10**5, 10**5 + 30) if is_squarefree(t)][:10]
    assert len(ts) == 10
    for d in _fields(ts):
        _check_class_numbers(d)


def test_oracle_cycles_partition_the_reduced_forms():
    for D in (5, 8, 12, 40, 136, 229, 4 * 79, 1345):
        cycles = oracle_cycles(D)
        forms = [f for cycle in cycles for f in cycle]
        assert sorted(forms) == oracle_forms_positive(D), D
    # Q(sqrt 79): h = 3 and the fundamental unit has norm +1, so h+ = 6
    assert len(oracle_cycles(4 * 79)) == 6


def _table_root(D, p):
    """The b_p of the prime form at p: at an odd p prime to D, the square
    root of D in [1, (p - 1)/2] that the table keeps, found here by search,
    moved to the parity of D."""
    if p == 2:
        return 1 if D % 2 else 2 * (D // 4 % 2)
    if D % p == 0:
        return p * (D & 1)
    r = next(r for r in range(1, p) if (r * r - D) % p == 0)
    return r if (r - D) % 2 == 0 else p - r


def test_prime_forms_are_the_split_and_ramified_primes():
    for d in _fields(range(1, 400)) + _fields(range(10**5, 10**5 + 8)):
        D = quadratic_field(d).discriminant
        sq = math.isqrt(abs(D))
        for bound in (1, 2, 3, 10, sq // 2, sq):
            forms = _prime_forms(D, bound)
            assert [p for p, _, _ in forms] == [
                p for p in primes_upto(bound) if kronecker(D, p) != -1], (d, bound)
            for p, b, c in forms:
                assert b * b - 4 * p * c == D, (d, p, b, c)
                assert b == _table_root(D, p), (d, p, b, c)


def test_square_root_tables_against_euler_criterion():
    # every odd prime below the cap: a root in [1, (p - 1)/2] exactly for
    # the n with n^((p - 1)/2) = 1, and 0 for the others
    for p in primes_upto(_SQRT_TABLE_CAP - 1)[1:]:
        table, half = _sqrt_table(p), (p - 1) // 2
        assert len(table) == p and table[0] == 0, p
        roots = table[1:]
        assert [r == 0 for r in roots] == [pow(n, half, p) != 1 for n in range(1, p)], p
        assert all(r <= half and r * r % p == n for n, r in enumerate(roots, 1) if r), p
    # above the cap, where Tonelli-Shanks answers instead
    for p in [p for p in primes_upto(_SQRT_TABLE_CAP + 200) if p > _SQRT_TABLE_CAP][:5]:
        for n in range(1, p):
            r = _sqrt_mod_prime(n, p)
            if pow(n, (p - 1) // 2, p) == 1:
                assert r is not None and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)


def _oracle_two_rank_count(D):
    """The classes of order <= 2, each equal to its inverse: for D < 0 the
    reduced forms that (a, -b, c) would not replace, b = 0, b = a or a = c;
    for D > 0 the cycles equal to their mirror, the inverse class's cycle
    of the forms (c, b, a)."""
    if D < 0:
        return sum(1 for a, b, c in oracle_forms_negative(D) if b == 0 or b == a or a == c)
    return sum(1 for cycle in oracle_cycles(D)
               if set(cycle) == {(c, b, a) for a, b, c in cycle})


def test_two_rank_matches_the_oracles_order_two_classes_up_to_3000():
    # |Cl[2]| = 2^r (narrow for d > 0) where r counts the even invariant
    # factors: genus theory read off the record, against the oracle's
    # forms and cycles
    for d in _fields(range(1, 3001)):
        data = _class_data(d)
        invariants = data.invariants if d < 0 else data.narrow_invariants
        r = sum(1 for n in invariants if n % 2 == 0)
        assert _oracle_two_rank_count(quadratic_field(d).discriminant) == 2 ** r, f"d = {d}"
