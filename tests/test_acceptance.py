"""Acceptance suite: one test per numbered criterion, each printing a
final pass/fail line via the terminal-summary hook in conftest.

Criterion 4 is expected to fail and is marked strict-xfail: the
unit-norm biconditional it asserts has genuine counterexamples (the
smallest is d = 34), where -1 is a norm from the field rationally but
not the norm of any unit. The supporting sweep test below pins the
exact failure set so any drift is caught.
"""

import time
from pathlib import Path

import pytest

from cptate import (
    CubicRecord,
    MalformedRecord,
    augmentation_module,
    check_reznikov,
    classify_free,
    cubic_rank_check,
    example_hempel,
    example_lens,
    free_regular_module,
    fundamental_unit,
    run_all_checks,
    splitting_density,
    tate,
    tor_and_free_parts,
    trivial_free_module,
)
from cptate.mfld import expected_outcomes
from cptate.numfield import (HEEGNER_DS, factorize, gauss_witness, nine_fields_check,
                              scan_cubic_csv)
from catalog import brute_tate_dims, finite_catalog

DATA = Path(__file__).parent / "data"
PRIMES = (2, 3, 5, 7)


@pytest.mark.acceptance(criterion=1, label="indecomposable signature table")
def test_criterion_1_signature_table():
    t0 = time.perf_counter()
    for p in PRIMES:
        table = {
            "trivial": trivial_free_module(p),
            "free": free_regular_module(p),
            "augmentation": augmentation_module(p),
        }
        want = {"trivial": (1, 0), "free": (0, 0), "augmentation": (0, 1)}
        for name, module in table.items():
            co = tate(module)
            assert (co.dim_h0, co.dim_h1) == want[name], f"p={p} {name}"
            t = classify_free(module)
            assert {"trivial": t.t, "free": t.f, "augmentation": t.a}[name] == 1
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=2, label="Herbrand equality on the finite catalog")
def test_criterion_2_herbrand_equality():
    t0 = time.perf_counter()
    catalog = finite_catalog()
    assert len(catalog) >= 100
    for module in catalog:
        co = tate(module)
        assert co.dim_h0 == co.dim_h1
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(criterion=3, label="exhaustive oracle agreement at order <= 200")
def test_criterion_3_brute_force_oracle():
    t0 = time.perf_counter()
    small = [m for m in finite_catalog() if m.group.order <= 200]
    assert len(small) >= 50
    for module in small:
        co = tate(module)
        assert brute_tate_dims(module) == (co.dim_h0, co.dim_h1)
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.acceptance(criterion=4, label="unit-norm dichotomy sweep to 5000")
@pytest.mark.xfail(
    strict=True,
    reason="genuine counterexamples from d = 34 on: -1 is a rational norm "
           "but not a unit norm, so the value is 1 while the unit has norm +1",
)
def test_criterion_4_gauss_identity_literal(quad_sweep):
    reports, _ = quad_sweep
    for d in sorted(r for r in reports if r >= 2):
        c = reports[d].checks["gauss_identity"]
        assert c.lhs in (1, 2), f"d = {d}"
        assert c.passed, f"d = {d}: value {c.lhs}, unit-norm prediction {c.rhs}"


def test_gauss_sweep_failure_set_is_frozen(quad_sweep):
    # green companion to criterion 4: everything true in the sweep, plus
    # the exact exception set
    reports, _ = quad_sweep
    failures = []
    for d in sorted(r for r in reports if r >= 2):
        c = reports[d].checks["gauss_identity"]
        assert c.lhs in (1, 2)
        if fundamental_unit(d).norm == -1:
            assert c.lhs == 1 and c.passed, f"d = {d}"
        if not c.passed:
            assert (c.lhs, c.rhs) == (1, 2), f"d = {d}"
            # failures happen exactly where -1 is a rational norm: every
            # odd prime divisor is 1 mod 4
            assert all(q % 4 == 1 for q in factorize(d) if q != 2), f"d = {d}"
            failures.append(d)
    assert len(failures) == 130
    assert failures[:6] == [34, 146, 178, 194, 205, 221]


def test_every_gauss_failure_has_a_rational_witness(quad_sweep):
    # the table prints x^2 - d*1^2 = -z^2 next to each frozen failure
    reports, _ = quad_sweep
    failures = [d for d in reports if d >= 2 and not reports[d].checks["gauss_identity"].passed]
    for d in failures:
        x, z = gauss_witness(d)
        assert x * x - d == -z * z, f"d = {d}"


@pytest.mark.acceptance(criterion=5, label="ramified-count bounds sweep to |d| = 5000")
def test_criterion_5_bounds_sweep(quad_sweep):
    reports, elapsed = quad_sweep
    assert elapsed < 300.0
    assert len(reports) == 6083
    for d, rep in reports.items():
        up = rep.checks["upper_nf"]
        lo = rep.checks["lower_nf"]
        cor = rep.checks["cor_lower"]
        assert up.passed, f"d = {d}: {up.lhs} > {up.rhs}"
        assert lo.passed, f"d = {d}: {lo.lhs} < {lo.rhs}"
        assert cor.passed, f"d = {d}"
        if d < 0:
            # imaginary fields: the upper bound is an equality, and the
            # lower bound's slack is exactly the archimedean place
            assert up.lhs == up.rhs, f"d = {d}"
            assert lo.lhs == lo.rhs + rep.ramification.s_inf, f"d = {d}"
            assert rep.ramification.s_inf == 1


@pytest.mark.acceptance(criterion=6, label="trivial class group scan to -200")
def test_criterion_6_nine_fields():
    t0 = time.perf_counter()
    found = nine_fields_check(-200)
    assert found == (-1, -2, -3, -7, -11, -19, -43, -67, -163)
    assert found == HEEGNER_DS
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(criterion=7, label="lens family dims and sharp upper bound")
def test_criterion_7_lens_sharpness():
    t0 = time.perf_counter()
    for p in PRIMES:
        e = example_lens(p)
        tor, free = tor_and_free_parts(e.h1)
        assert tate(tor).dim_h0 == 1, f"p={p}"
        assert tate(free).dim_h1 == 1, f"p={p}"
        v = run_all_checks(e)["upperT"]
        assert v.hypotheses_met and v.passed
        assert v.lhs == v.rhs == 3, f"p={p}: bound not sharp"
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=8, label="surgery family dims and bare-bound failures")
def test_criterion_8_hempel_family():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        for n in range(1, 9):
            e = example_hempel(p, n)
            assert e.s == n
            tor, free = tor_and_free_parts(e.h1)
            assert tate(tor).dim_h0 == 1, f"p={p} n={n}"
            assert tate(free).dim_h1 == 0, f"p={p} n={n}"
            verdicts = run_all_checks(e)
            lo = verdicts["lower1"]
            assert not lo.hypotheses_met
            if n == 1:
                assert not lo.bare_holds
            up = verdicts["upper1"]
            assert not up.hypotheses_met
            assert up.bare_holds == (n <= 2), f"p={p} n={n}"
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=9, label="fixed-point count fails without its hypotheses")
def test_criterion_9_fixed_point_necessity():
    t0 = time.perf_counter()
    for p in PRIMES:
        e = example_lens(p)
        v = check_reznikov(e)
        assert (v.lhs, v.rhs) == (1, 2)
        assert not v.hypotheses_met
        assert v.passed is None
        assert not v.bare_holds
        # and the documentation records this as the expected outcome
        assert expected_outcomes(e)["reznikov"] == (False, False)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(criterion=10, label="split fraction near one half")
def test_criterion_10_splitting_density():
    t0 = time.perf_counter()
    for d in (-1, 5, -23, 10):
        density = splitting_density(d, 10_000)
        assert 0.45 <= density.fraction <= 0.55, f"d = {d}: {density.fraction}"
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.acceptance(criterion=11, label="cubic record ingestion and rejection")
def test_criterion_11_cubic_ingestion():
    t0 = time.perf_counter()
    records = [item for _, item in scan_cubic_csv(DATA / "cyclic_cubic.csv")]
    assert all(isinstance(r, CubicRecord) for r in records)
    assert [r.conductor for r in records] == [7, 9, 13, 63]
    for r in records:
        assert cubic_rank_check(r).passed, f"conductor {r.conductor}"
    # the corrupted file: unparseable and inadmissible rows are flagged,
    # and the record understating the 63 class group fails the bound
    flagged = [item for _, item in scan_cubic_csv(DATA / "cyclic_cubic_corrupt.csv")
               if isinstance(item, MalformedRecord)]
    assert flagged
    lying = cubic_rank_check(CubicRecord(63, ()))
    assert not lying.passed and (lying.lhs, lying.rhs) == (0, 1)
    assert time.perf_counter() - t0 < 1.0
