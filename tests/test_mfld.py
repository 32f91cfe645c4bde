import pytest

from cptate import (
    ManifoldExample,
    check_reznikov,
    example_hempel,
    example_lens,
    from_invariants,
    h0_and_fixed_points,
    nonsplit_extension,
    run_all_checks,
    tate,
    tor_and_free_parts,
    trivial_module,
)
from cptate.mfld import expected_outcomes, verdict_to_dict
from catalog import perm_block

PRIMES = (2, 3, 5, 7)


# -- constructors --------------------------------------------------------------


def test_rejects_negative_branch_count():
    with pytest.raises(ValueError):
        ManifoldExample(name="bad", p=3, h1=nonsplit_extension(3), s=-1,
                        quotient_free_rank=0, quotient_tor_p_trivial=True,
                        splits=False)


def test_hempel_needs_at_least_one_circle():
    with pytest.raises(ValueError):
        example_hempel(3, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_nonsplit_extension_is_strictly_smaller_than_its_pieces(p):
    m = nonsplit_extension(p)
    t, f = tor_and_free_parts(m)
    assert t.group == from_invariants((p,))
    assert f.group.free_rank == 1 and f.group.invariant_factors == ()
    # torsion and free parts carry trivial actions
    assert (tate(t).dim_h0, tate(t).dim_h1) == (1, 1)
    assert (tate(f).dim_h0, tate(f).dim_h1) == (1, 0)
    # but the extension loses cohomology: strict failure of additivity
    # is what stops tor/free bounds from transferring to h1
    assert (tate(m).dim_h0, tate(m).dim_h1) == (1, 0)
    assert tate(m).dim_h0 < tate(t).dim_h0 + tate(f).dim_h0


@pytest.mark.parametrize("p", PRIMES)
def test_lens_dims(p):
    e = example_lens(p)
    assert e.s == 3 and e.splits and e.quotient_free_rank == 0
    assert (tate(e.h1).dim_h0, tate(e.h1).dim_h1) == (1, 2)
    tor, free = tor_and_free_parts(e.h1)
    assert (tate(tor).dim_h0, tate(tor).dim_h1) == (1, 1)
    assert (tate(free).dim_h0, tate(free).dim_h1) == (0, 1)
    assert tor.group == from_invariants((p,))
    assert free.group.free_rank == p - 1


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", range(1, 9))
def test_hempel_dims(p, n):
    e = example_hempel(p, n)
    assert e.s == n and not e.splits and e.quotient_free_rank == n
    assert (tate(e.h1).dim_h0, tate(e.h1).dim_h1) == (n, 0)
    tor, free = tor_and_free_parts(e.h1)
    assert tor.group == from_invariants((p,))
    assert free.group.free_rank == n


# -- individual checkers on the lens family -------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_lens_upper_bounds_hold_with_equality(p):
    verdicts = run_all_checks(example_lens(p))
    v = verdicts["upperT"]
    assert (v.lhs, v.rhs, v.hypotheses_met, v.passed) == (3, 3, True, True)
    v = verdicts["upper1"]
    assert (v.lhs, v.rhs, v.hypotheses_met, v.passed) == (3, 3, True, True)


@pytest.mark.parametrize("p", PRIMES)
def test_lens_lower_bounds(p):
    verdicts = run_all_checks(example_lens(p))
    v = verdicts["lower1"]
    assert (v.lhs, v.rhs, v.passed) == (3, 2, True)
    v = verdicts["cor_lower"]
    assert (v.lhs, v.rhs, v.passed) == (1, 2, True)


@pytest.mark.parametrize("p", PRIMES)
def test_lens_fails_fixed_point_count(p):
    # the free part of h1 is nonzero, so the rational-sphere hypothesis
    # fails, and the fixed-class count 1 genuinely differs from s - 1 = 2
    e = example_lens(p)
    v = check_reznikov(e)
    assert not v.hypotheses_met
    assert v.passed is None
    assert not v.bare_holds
    assert (v.lhs, v.rhs) == (1, 2)


# -- individual checkers on the hempel family ------------------------------------


@pytest.mark.parametrize("p", (2, 3, 5))
def test_hempel_upper1_bare_violated_exactly_from_three_circles(p):
    for n in range(1, 9):
        v = run_all_checks(example_hempel(p, n))["upper1"]
        assert not v.hypotheses_met
        assert v.passed is None
        assert (v.lhs, v.rhs) == (n, 2)
        assert v.bare_holds == (n <= 2)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_hempel_lower1_bare_violated_only_for_one_circle(p):
    for n in range(1, 9):
        v = run_all_checks(example_hempel(p, n))["lower1"]
        assert not v.hypotheses_met
        assert v.bare_holds == (n >= 2)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_hempel_always_meets_the_hypothesis_free_bounds(p):
    for n in range(1, 9):
        verdicts = run_all_checks(example_hempel(p, n))
        v = verdicts["upperT"]
        assert v.hypotheses_met and v.passed
        assert v.rhs == n + 1
        v = verdicts["cor_lower"]
        assert v.hypotheses_met and v.passed


@pytest.mark.parametrize("p", (2, 3, 5))
def test_hempel_matches_fixed_point_count_only_at_two(p):
    for n in range(1, 9):
        v = check_reznikov(example_hempel(p, n))
        assert not v.hypotheses_met
        assert v.bare_holds == (n == 2)


# -- documented outcomes ------------------------------------------------------------


def outcome(v):
    return (v.hypotheses_met, v.passed if v.hypotheses_met else v.bare_holds)


@pytest.mark.parametrize("p", PRIMES)
def test_lens_matches_documentation(p):
    e = example_lens(p)
    got = {name: outcome(v) for name, v in run_all_checks(e).items()}
    assert got == expected_outcomes(e)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", range(1, 9))
def test_hempel_matches_documentation(p, n):
    e = example_hempel(p, n)
    got = {name: outcome(v) for name, v in run_all_checks(e).items()}
    assert got == expected_outcomes(e)


def test_expected_outcomes_rejects_unknown_family():
    e = example_lens(3)
    impostor = ManifoldExample(name="unknown(p=3)", p=3, h1=e.h1, s=3,
                               quotient_free_rank=0, quotient_tor_p_trivial=True,
                               splits=True)
    with pytest.raises(KeyError):
        expected_outcomes(impostor)


# -- synthetic examples for the fixed-point count ------------------------------------


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fixed_point_count_passes_on_elementary_sphere(p):
    # (Z/p)^2 with trivial action and three branch circles: the count
    # s - 1 = 2 matches the fixed classes exactly
    h1 = trivial_module(p, from_invariants((p, p)))
    e = ManifoldExample(name="synthetic", p=p, h1=h1, s=3,
                        quotient_free_rank=0, quotient_tor_p_trivial=True,
                        splits=True)
    v = check_reznikov(e)
    assert v.hypotheses_met and v.passed
    assert (v.lhs, v.rhs) == (2, 2)


def test_fixed_point_count_passes_on_homology_sphere():
    h1 = trivial_module(5, from_invariants(()))
    e = ManifoldExample(name="synthetic", p=5, h1=h1, s=1,
                        quotient_free_rank=0, quotient_tor_p_trivial=True,
                        splits=True)
    v = check_reznikov(e)
    assert v.hypotheses_met and v.passed
    assert (v.lhs, v.rhs) == (0, 0)


@pytest.mark.parametrize("p", (2, 3))
def test_fixed_point_count_with_nontrivial_action(p):
    # (Z/p)^p permuted cyclically has fixed classes Z/p: rank 1, so the
    # count matches at s = 2
    h1 = perm_block(p, p)
    assert h0_and_fixed_points(h1)[1].invariant_factors == (p,)
    e = ManifoldExample(name="synthetic", p=p, h1=h1, s=2,
                        quotient_free_rank=0, quotient_tor_p_trivial=True,
                        splits=True)
    v = check_reznikov(e)
    assert v.hypotheses_met and v.passed
    assert (v.lhs, v.rhs) == (1, 1)


def test_checks_registry_and_serialization():
    verdicts = run_all_checks(example_hempel(3, 4))
    assert list(verdicts) == ["upperT", "upper1", "lower1", "reznikov", "cor_lower"]
    assert all(v.theorem == name for name, v in verdicts.items())
    doc = verdict_to_dict(verdicts["upper1"])
    assert doc == {"theorem": "upper1", "lhs": 4, "rhs": 2,
                   "hypotheses_met": False, "pass": None, "bare_holds": False}
