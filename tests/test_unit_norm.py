"""An oracle for the fundamental unit's norm, which the class record reads
off h+ = h: N(eps) = -1 exactly when the continued fraction of omega has
odd period, omega = sqrt(d), or (1 + sqrt(d))/2 when d = 1 (mod 4). The
oracle walks the continued fraction and tests square-freeness itself, and
takes from cptate only the norm it checks."""

from math import isqrt

from cptate import field_report


def squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def odd_period(d: int) -> bool:
    """Whether omega's continued fraction has odd period. Its complete
    quotients are (P + sqrt(d))/Q with Q > 0 dividing d - P^2, and from
    the second one on they repeat, since that one is reduced."""
    r = isqrt(d)

    def step(P, Q):
        P = (P + r) // Q * Q - P
        return P, (d - P * P) // Q

    first = step(*((1, 2) if d % 4 == 1 else (0, 1)))
    state, period = step(*first), 1
    while state != first:
        state, period = step(*state), period + 1
    return period % 2 == 1


def test_oracle_pins():
    # sqrt(2) = [1; 2], (1 + sqrt(5))/2 = [1; 1], sqrt(3) = [1; 1, 2] and
    # sqrt(34) = [5; 1, 4, 1, 10]
    assert [odd_period(d) for d in (2, 5, 3, 34)] == [True, True, False, False]


def test_unit_norm_is_the_period_parity_up_to_5000(quad_sweep):
    reports, _ = quad_sweep
    ds = [d for d in range(2, 5001) if squarefree(d)]
    assert ds == sorted(d for d in reports if d >= 2)
    want = [-1 if odd_period(d) else 1 for d in ds]
    assert [reports[d].class_data.unit_norm for d in ds] == want
    assert (len(ds), want.count(-1)) == (3041, 648)
    assert reports[-5].class_data.unit_norm is None


def test_unit_norm_is_the_period_parity_above_a_million_and_ten_million():
    for base in (10**6, 10**7):
        ds = [d for d in range(base + 1, base + 60) if squarefree(d)][:20]
        assert len(ds) == 20
        for d in ds:
            want = -1 if odd_period(d) else 1
            assert field_report(d).class_data.unit_norm == want, f"d = {d}"
