"""The reduced forms that numfield enumerates from square roots of D modulo
4a, against the plain enumeration oracle below: loop over b, and take a
over the divisors of (b^2 - D)/4 by trial division. The oracle is O(|D|)
and shares no code with numfield."""

import math

from cptate.numfield import (
    _reduced_forms,
    _sqrt_mod_prime,
    is_squarefree,
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


def _fields(ts):
    return [d for t in ts for d in (-t, t) if d != 1 and is_squarefree(d)]


def test_reduced_forms_match_the_oracle_up_to_5000():
    for d in _fields(range(1, 5001)):
        D = quadratic_field(d).discriminant
        assert _reduced_forms(D) == oracle_forms(D), f"d = {d}"


def test_reduced_forms_match_the_oracle_near_10_to_the_5():
    ts = [t for t in range(10**5, 10**5 + 30) if is_squarefree(t)][:10]
    assert len(ts) == 10
    for d in _fields(ts):
        D = quadratic_field(d).discriminant
        assert _reduced_forms(D) == oracle_forms(D), f"d = {d}"


def test_sqrt_mod_prime_against_euler_criterion():
    for p in primes_upto(400)[1:]:
        for n in range(1, p):
            r = _sqrt_mod_prime(n, p)
            if pow(n, (p - 1) // 2, p) == 1:
                assert r is not None and r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
