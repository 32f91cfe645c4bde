"""Each field and each manifold example derives its cohomology once; the
checks only read the stored record. Fields share the cohomology of their
class module by the isomorphism type of its 2-primary part, and of their
unit module by sign."""

import math
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from catalog import conjugate, finite_catalog, random_unimodular
from cptate import IntMatrix, cpmod, intlinalg, mfld, numfield

CASES = [(mfld.example_lens, (5,)), (mfld.example_hempel, (3, 4))]
CASE_IDS = ["lens(5)", "hempel(3,4)"]


def _count_calls(monkeypatch, module, names):
    """Replace each named function of module by a wrapper that counts its
    calls; returns the live counter."""
    counts = Counter()
    for name in names:
        def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def _clear_caches():
    """Empty every memo cache of the program, as perfbench does between
    passes, so counts start cold."""
    for module in (intlinalg, cpmod, numfield, mfld):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@pytest.mark.parametrize("d", [10, -21])
def test_field_report_computes_cohomology_once(monkeypatch, d):
    _clear_caches()
    counts = _count_calls(monkeypatch, numfield, ("tate_dim", "h0_and_fixed_points"))
    numfield.field_report(d)
    # H^0 and the fixed points of the class group from one preimage, and
    # H^1 alone of the class group and of the unit module
    assert counts == {"tate_dim": 2, "h0_and_fixed_points": 1}
    numfield.field_report(d)
    assert counts == {"tate_dim": 2, "h0_and_fixed_points": 1}


def test_fields_share_cohomology_by_isomorphism_type(monkeypatch):
    # all four have Cl = Z/2; the unit module changes only with the sign
    _clear_caches()
    counts = _count_calls(monkeypatch, numfield, ("tate_dim",))
    for d, calls in [(-5, 2), (-6, 0), (10, 1), (15, 0)]:
        before = counts["tate_dim"]
        report = numfield.field_report(d)
        assert report.class_data.invariants == (2,)
        assert counts["tate_dim"] - before == calls, f"d = {d}"


@pytest.mark.parametrize("steps", [
    [(-2, (), 2), (-23, (3,), 0), (-47, (5,), 0), (-239, (15,), 0),
     (-5, (2,), 1), (-26, (6,), 0)],
    [(2, (), 2), (79, (3,), 0), (401, (5,), 0), (9871, (15,), 0),
     (10, (2,), 1), (235, (6,), 0)],
], ids=["d<0", "d>0"])
def test_fields_share_cohomology_by_the_2_primary_part(monkeypatch, steps):
    # the cohomology of Cl under inversion lives on its 2-primary part, so
    # odd class groups reuse the trivial group's entry and Z/6 reuses Z/2's;
    # the first field of each list also takes the unit module's H^1
    _clear_caches()
    counts = _count_calls(monkeypatch, numfield, ("tate_dim",))
    for d, invariants, calls in steps:
        before = counts["tate_dim"]
        report = numfield.field_report(d)
        assert report.class_data.invariants == invariants
        assert counts["tate_dim"] - before == calls, f"d = {d}"


def test_class_group_composes_once_per_inverse_pair(monkeypatch):
    # a work counter: Cl = Z/2 x Z/516, so 2Cl = Z/258 and the lattice on
    # the squared prime forms enumerates 258 classes; it composes one
    # class of each inverse pair, never with the principal form, takes
    # the other by inversion, and squares a prime form with no composition
    counts = _count_calls(monkeypatch, numfield, ("_compose_raw",))
    data = numfield._class_data.__wrapped__(-1000001)
    assert data.invariants == (2, 516)
    assert counts["_compose_raw"] == 129


def test_narrow_class_group_walks_one_cycle_per_inverse_pair(monkeypatch):
    # a work counter: h+ = 94, and only the 47 cycles of the square
    # subgroup are walked; walking a cycle also labels its mirror, the
    # cycle of the inverse class, so a class and its inverse cost one walk,
    # and a cycle that is its own mirror is walked halfway. A walk takes a
    # step per form it visits and one more on such a cycle; the 157 rho
    # steps reduce the 39 squared prime forms, the composites and, once,
    # (-1, b0, *)
    steps = Counter()
    walk = numfield._walk_cycle

    def counted(*args):
        keys, mirrors, ambiguous = walk(*args)
        steps["walk"] += len(keys) + ambiguous
        return keys, mirrors, ambiguous

    monkeypatch.setattr(numfield, "_walk_cycle", counted)
    counts = _count_calls(monkeypatch, numfield, ("_rho",))
    data = numfield._class_data.__wrapped__(1000001)
    assert data.narrow_invariants == (94,)
    assert steps["walk"] == 278
    assert counts["_rho"] == 157


@pytest.mark.parametrize("d, eliminations", [(-1000001, 1), (1000001, 2)])
def test_class_data_builds_no_matrix(monkeypatch, d, eliminations):
    # a work counter: with the class module's and the unit module's
    # cohomology cached, a field's record eliminates its relation rows in
    # place, once for d < 0 and for d > 0 once more for the wide group,
    # and builds no validated matrix and takes no snf
    _clear_caches()
    numfield._class_data(d)
    validations = Counter()
    check = IntMatrix.__post_init__

    def counted(self):
        validations["validations"] += 1
        check(self)

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    counts = _count_calls(monkeypatch, intlinalg, ("snf", "_eliminate"))
    module_snfs = _count_calls(monkeypatch, cpmod, ("snf",))
    assert numfield._class_data.__wrapped__(d) == numfield._class_data(d)
    assert validations["validations"] == counts["snf"] == module_snfs["snf"] == 0
    assert counts["_eliminate"] == eliminations


def _square_root_lookups(ds):
    """How many square roots modulo each odd prime the fields ds look up:
    one per field whose bound reaches p, unless p divides D."""
    lookups = Counter()
    for d in ds:
        D = numfield.quadratic_field(d).discriminant
        bound = math.isqrt(-D // 3) if d < 0 else math.isqrt(D) // 2
        lookups.update(p for p in numfield.primes_upto(bound)[1:] if D % p)
    return lookups


def test_a_sweep_builds_each_primes_square_root_table_once(monkeypatch):
    # a work counter: the first p >> 5 lookups of p run Tonelli-Shanks, the
    # next builds p's table and every later one reads it; the fields near
    # 10^6 reach primes up to 1154, and a sweep of them, or two, builds the
    # tables of the smaller primes only
    _clear_caches()
    counts = _count_calls(
        monkeypatch, numfield, ("_sqrt_mod_prime", "_sqrt_table"))
    ds = [d for d in range(10**6, 10**6 + 20) if numfield.is_squarefree(d)]
    ds += [-d for d in ds]
    for sweeps in (1, 2):
        if sweeps == 2:
            numfield._class_data.cache_clear()
        for d in ds:
            numfield.class_number(d)
        lookups = {p: n * sweeps for p, n in _square_root_lookups(ds).items()}
        built = [p for p, n in lookups.items() if n > p >> 5]
        assert 0 < len(built) < len(lookups)
        assert counts["_sqrt_table"] == len(built)
        assert counts["_sqrt_mod_prime"] == sum(
            min(n, p >> 5) for p, n in lookups.items())
        memo = {p: numfield._sqrt_lookups(p) for p in lookups}
        assert {p: n for p, (_, n) in memo.items()} == {
            p: min(n, (p >> 5) + 1) for p, n in lookups.items()}
        assert [p for p, (table, _) in memo.items() if table] == built


@pytest.mark.parametrize("d", [-10000001, 10000001])
def test_one_field_builds_square_root_tables_only_below_32(monkeypatch, d):
    # a cold field near 10^7 reads primes up to 3651; tables for p >= 32
    # wait until a sweep has looked p up p >> 5 times
    _clear_caches()
    counts = _count_calls(
        monkeypatch, numfield, ("_sqrt_mod_prime", "_sqrt_table"))
    numfield.class_number(d)
    lookups = _square_root_lookups([d])
    assert counts["_sqrt_table"] == len([p for p in lookups if p < 32])
    assert counts["_sqrt_mod_prime"] == len([p for p in lookups if p >= 32])


def test_field_report_runs_no_pell_solver(monkeypatch):
    # a work counter: the unit's norm is read off the class record, h+ = h,
    # so no report walks the continued fraction of sqrt(d)
    _clear_caches()
    counts = _count_calls(monkeypatch, numfield, ("_pell4",))
    ds = [d for d in range(-200, 201) if d not in (0, 1) and numfield.is_squarefree(d)]
    for d in ds + [10**6 + 1, 10**9 + 7]:
        numfield.field_report(d)
    assert counts["_pell4"] == 0


@pytest.mark.parametrize("d", [-21, 10])
def test_field_report_factors_d_a_bounded_number_of_times(monkeypatch, d):
    # once the unit module of each sign is cached, a new field factors d
    # once: its class group and ramification share that check
    _clear_caches()
    numfield.field_report(-1)
    numfield.field_report(2)
    counts = _count_calls(monkeypatch, numfield, ("factorize",))
    numfield.field_report(d)
    assert counts["factorize"] == 1


@pytest.mark.parametrize("make, args", CASES, ids=CASE_IDS)
def test_example_checks_compute_cohomology_once(monkeypatch, make, args):
    _clear_caches()
    counts = _count_calls(monkeypatch, mfld, ("tate_dim", "h0_and_fixed_points",
                                              "tor_and_free_parts"))
    mfld.run_all_checks(make(*args))
    # only the groups the checks read: both parts sliced at once, H^0 of
    # h1 and H^1 of its free part alone, and H^0 and the fixed points of
    # its torsion part together
    assert counts == {"tor_and_free_parts": 1, "tate_dim": 2, "h0_and_fixed_points": 1}
    # tor_and_free_parts is the one entry to the parts: no wrapper for
    # either part alone is left in cpmod for mfld to call
    assert not hasattr(cpmod, "tor_module") and not hasattr(cpmod, "free_module")


def _derived(e):
    return {f.name: getattr(e, f.name) for f in fields(e) if not f.init}


def test_examples_share_the_cohomology_of_their_parts(monkeypatch):
    # a work counter: lens(p) and hempel(p, n), n <= 4, in their own basis
    # and a scrambled one. Every torsion part is Z/p on its Smith diagonal,
    # so its H^0 and fixed points are formed once per p; a free part's H^1
    # is formed once per distinct part (hempel's trivial Z^n is the same
    # part in every basis), and each example's record is the one it gets
    # from cold caches
    _clear_caches()
    calls = Counter()
    h0_and_fixed_points, tate_dim = mfld.h0_and_fixed_points, mfld.tate_dim

    def counted_h0(module):
        calls["h0_and_fixed_points", module.p] += 1
        return h0_and_fixed_points(module)

    def counted_tate(module, q):
        calls["tate_dim", q] += 1
        return tate_dim(module, q)

    monkeypatch.setattr(mfld, "h0_and_fixed_points", counted_h0)
    monkeypatch.setattr(mfld, "tate_dim", counted_tate)
    rng = random.Random(29)
    primes = (2, 3, 5, 7)
    examples = []
    for p in primes:
        for e in [mfld.example_lens(p)] + [mfld.example_hempel(p, n) for n in range(1, 5)]:
            m = e.h1.ambient_rank
            moved = conjugate(e.h1, *random_unimodular(rng, m, 3 * m))
            examples += [e, replace(e, h1=moved)]
    free_parts = {cpmod.tor_and_free_parts(e.h1)[1] for e in examples}
    assert len(free_parts) < len(examples)
    assert calls == {**{("h0_and_fixed_points", p): 1 for p in primes},
                     ("tate_dim", 0): len(examples), ("tate_dim", 1): len(free_parts)}
    for e in examples:
        shared = _derived(e)
        _clear_caches()
        assert _derived(replace(e, h1=e.h1)) == shared


@pytest.mark.parametrize("make, args", CASES, ids=CASE_IDS)
def test_example_from_a_validated_h1_validates_no_part(monkeypatch, make, args):
    # the torsion and free parts are cut from h1, which is already valid,
    # so neither the validated constructor nor CpModule's own validation runs
    e = make(*args)
    counts = _count_calls(monkeypatch, cpmod, ("new_cp_module",))
    validate = cpmod.CpModule.__post_init__

    def counted(self):
        counts["validations"] += 1
        validate(self)

    monkeypatch.setattr(cpmod.CpModule, "__post_init__", counted)
    replace(e, h1=e.h1)
    assert counts["new_cp_module"] == counts["validations"] == 0
    # the counter sees a validation where one runs
    cpmod.trivial_module(args[0], e.h1.group)
    assert counts["validations"] == 1


def _count_smith_forms(monkeypatch):
    """Counter of the Smith forms taken: every snf, and every subquotient
    numerator, goes through the one elimination routine."""
    return _count_calls(monkeypatch, intlinalg, ("_eliminate",))


def _count_products(monkeypatch):
    """Counter of the matrix products formed, those by 0 and 1 included."""
    counts = Counter()
    product = IntMatrix.__matmul__

    def counted(self, other):
        counts["products"] += 1
        return product(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return counts


@pytest.mark.parametrize("d, calls", [(10, 14), (-21, 13)])
def test_field_report_smith_form_count(monkeypatch, d, calls):
    # a work counter, not a time gate: a redundant Smith form raises it
    _clear_caches()
    counts = _count_smith_forms(monkeypatch)
    numfield.field_report(d)
    assert counts["_eliminate"] == calls


@pytest.mark.parametrize("make, args, calls",
                         [(mfld.example_lens, (5,), 13), (mfld.example_hempel, (3, 4), 13)],
                         ids=CASE_IDS)
def test_example_smith_form_count(monkeypatch, make, args, calls):
    # the relations' Smith form carries U^-1, so no second one inverts U;
    # the parts' groups are presented by the Smith diagonal, which is its
    # own Smith form; and lens's trivial Z/p summand is validated on the
    # group it is given, with no second Smith form of its relations
    _clear_caches()
    counts = _count_smith_forms(monkeypatch)
    mfld.run_all_checks(make(*args))
    assert counts["_eliminate"] == calls


@pytest.mark.parametrize("make, args, products",
                         [(mfld.example_lens, (5,), 18), (mfld.example_hempel, (3, 4), 12)],
                         ids=CASE_IDS)
def test_example_product_count(monkeypatch, make, args, products):
    # a work counter: each of the example's three modules takes two
    # products to move tau into its group's Smith coordinates, where
    # descent is read off the diagonal with no product, one for S N, and
    # those of N, which starts from 2 + S; the parts are sliced from the
    # moved tau and N, a subquotient's denominators ride through its
    # numerator's elimination, and the Tate groups of a module, valid by
    # construction, recheck neither the descent of S and N nor their
    # composite
    _clear_caches()
    counts = _count_products(monkeypatch)
    mfld.run_all_checks(make(*args))
    assert counts["products"] == products


@pytest.mark.parametrize("make, args", CASES, ids=CASE_IDS)
def test_parts_take_no_product_and_no_smith_form(monkeypatch, make, args):
    # a work counter: the parts are blocks of the Smith coordinates h1
    # keeps, on groups presented by the Smith diagonal
    h1 = make(*args).h1
    counters = (_count_products(monkeypatch),
                _count_calls(monkeypatch, intlinalg, ("snf", "_eliminate")),
                _count_calls(monkeypatch, cpmod, ("snf",)))
    tor, free = cpmod.tor_and_free_parts(h1)
    assert (tor.group.order, free.group.free_rank) == (args[0], h1.group.free_rank)
    assert [sum(c.values()) for c in counters] == [0, 0, 0]


def test_example_matrix_validation_count(monkeypatch):
    # a work counter: matrices derived from checked ones skip the per-entry
    # checks; the 4 left are the example's own relations and tau
    _clear_caches()
    calls = Counter()
    check = IntMatrix.__post_init__

    def counted(self):
        calls["validations"] += 1
        check(self)

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    mfld.run_all_checks(mfld.example_hempel(3, 4))
    assert 0 < calls["validations"] <= 4


def test_module_operations_reuse_the_groups_smith_form(monkeypatch):
    # the fixed points are read off one Smith form of their relations, so
    # a module whose relations are already diagonal could rightly meet
    # them there
    def in_smith_form(r):
        return r == IntMatrix.diagonal(intlinalg.snf(r).diagonal, rows=r.rows, cols=r.cols)

    mods = [m for m in finite_catalog() if not in_smith_form(m.group.relations)]
    assert len(mods) >= 50
    seen = []
    for module in (intlinalg, cpmod):
        def recorded(a, _orig=module.snf):
            seen.append(a)
            return _orig(a)
        monkeypatch.setattr(module, "snf", recorded)
    for m in mods:
        seen.clear()
        for op in (cpmod.tate, cpmod.h0_and_fixed_points, cpmod.tor_and_free_parts):
            op(m)
        assert seen and m.group.relations not in seen


@pytest.mark.parametrize("make, args", CASES, ids=CASE_IDS)
def test_derived_fields_stay_out_of_equality_and_repr(make, args):
    e = make(*args)
    assert make(*args) == e and hash(make(*args)) == hash(e)
    again = replace(e, h1=e.h1)
    assert again == e and hash(again) == hash(e)
    assert mfld.run_all_checks(again) == mfld.run_all_checks(e)
    derived = [f.name for f in fields(e) if not f.init]
    assert derived
    for name in derived:
        object.__setattr__(again, name, None)
    assert again == e and hash(again) == hash(e) and repr(again) == repr(e)
