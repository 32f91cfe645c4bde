import random
import time
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from cptate import (
    CpModule,
    CpModuleError,
    IntMatrix,
    ModuleNotTorsionFree,
    NotPrime,
    PrimeMismatch,
    TauDoesNotDescend,
    TauNotInvertible,
    TauOrderNotDividingP,
    augmentation_module,
    classify_free,
    cokernel,
    cpmod,
    direct_sum,
    free_regular_module,
    from_invariants,
    h0_and_fixed_points,
    intlinalg,
    new_cp_module,
    tate,
    tate_dim,
    tor_and_free_parts,
    trivial_free_module,
    trivial_module,
)
from cptate.mfld import example_hempel, example_lens
from catalog import (
    PRIMES,
    base_blocks,
    brute_counts,
    brute_tate_dims,
    conjugate,
    finite_catalog,
    in_lattice,
    perm_block,
    random_unimodular,
    trivial_block,
    twist_block,
)


def _power(mat, k):
    """mat^k by squaring on row lists, with no IntMatrix product."""
    def times(a, b):
        return [[sum(map(mul, r, c)) for c in zip(*b)] for r in a]

    n = mat.rows
    result, base = [[int(i == j) for j in range(n)] for i in range(n)], mat.to_rows()
    while k:
        if k & 1:
            result = times(result, base)
        base = times(base, base)
        k >>= 1
    return IntMatrix.from_rows(result, cols=n)


# -- constructor validation --------------------------------------------------


def test_rejects_composite_p():
    with pytest.raises(NotPrime):
        new_cp_module(4, IntMatrix.zeros(1, 0), IntMatrix.identity(1))


def test_rejects_tau_that_moves_the_lattice():
    rel = IntMatrix.from_columns([[2, 0]], 2)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(TauDoesNotDescend):
        new_cp_module(2, rel, swap)


def test_rejects_noninvertible_tau():
    with pytest.raises(TauNotInvertible):
        new_cp_module(2, IntMatrix.diagonal([4]), IntMatrix.from_rows([[2]]))
    # not invertible and of the wrong order: invertibility is reported
    with pytest.raises(TauNotInvertible):
        new_cp_module(2, IntMatrix.zeros(1, 0), IntMatrix.from_rows([[2]]))
    with pytest.raises(TauNotInvertible):
        new_cp_module(3, IntMatrix.diagonal([3]), IntMatrix.from_rows([[0]]))


def test_rejects_tau_of_wrong_order():
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])  # order 4
    with pytest.raises(TauOrderNotDividingP):
        new_cp_module(2, IntMatrix.zeros(2, 0), rot)
    with pytest.raises(TauOrderNotDividingP):
        new_cp_module(3, IntMatrix.zeros(2, 0), -IntMatrix.identity(2))


def test_identity_modulo_the_residue_prime_is_still_tested_exactly():
    # tau^p = [[1, p l], [0, 1]] is 1 modulo l but not over Z; p is large
    # enough that the residue test runs
    ell = cpmod._RESIDUE_PRIME
    shear = IntMatrix.from_rows([[1, ell], [0, 1]])
    with pytest.raises(TauOrderNotDividingP):
        new_cp_module(10007, IntMatrix.zeros(2, 0), shear)


def test_wrong_order_is_rejected_without_forming_the_norm(monkeypatch):
    # over Z, N for p = 1000003 would have entries of about 10^6 bits; on
    # (Z/5)^2 the residues modulo the exponent 5 decide, and 2^31 - 1 is
    # prime to 5
    calls = []
    monkeypatch.setattr(cpmod, "_norm", lambda *args: calls.append(args))
    tau = IntMatrix.from_rows([[2, 1], [1, 1]])
    for rel in (IntMatrix.zeros(2, 0), IntMatrix.diagonal([5, 5])):
        t0 = time.perf_counter()
        with pytest.raises(TauOrderNotDividingP):
            new_cp_module(1000003, rel, tau)
        assert time.perf_counter() - t0 < 0.1
    assert calls == []


def _expected_error(p, rel, tau):
    """The error new_cp_module must raise, by catalog.in_lattice: the
    columns of tau rel and of tau^p - 1, formed directly, against the
    relation lattice, and tau is invertible on the group iff the unit
    vectors lie in the span of [tau | rel]; None if valid."""
    def inside(lattice, mat):
        return all(in_lattice(lattice, mat.entries[j::mat.cols]) for j in range(mat.cols))

    one = IntMatrix.identity(tau.rows)
    if not inside(rel, tau @ rel):
        return TauDoesNotDescend
    if inside(rel, _power(tau, p) - one):
        return None
    if not inside(tau.hstack(rel), one):
        return TauNotInvertible
    return TauOrderNotDividingP


def _random_spec(rng):
    """(p, relations, tau) on at most 3 generators, valid or not."""
    # the residue test runs for the large primes only
    p = rng.choice((2, 3, 5, 10007))
    m = rng.randint(1, 3)
    rel = IntMatrix.from_columns(
        [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))], m)
    if rng.random() < 0.5:
        # a signed permutation, often of order dividing p
        perm = rng.sample(range(m), m)
        tau = IntMatrix.from_rows([[rng.choice((1, -1)) if j == perm[i] else 0
                                    for j in range(m)] for i in range(m)])
    else:
        tau = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(m)]
                                   for _ in range(m)])
    return p, rel, tau


@pytest.mark.parametrize("seed", range(3))
def test_errors_on_random_specs_match_the_exact_tests(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(200):
        p, rel, tau = _random_spec(rng)
        want = _expected_error(p, rel, tau)
        seen.add(want)
        try:
            new_cp_module(p, rel, tau)
        except (TauDoesNotDescend, TauNotInvertible, TauOrderNotDividingP) as err:
            assert type(err) is want, (p, rel, tau)
        else:
            assert want is None, (p, rel, tau)
    assert len(seen) == 4


def test_rejects_shape_mismatch():
    with pytest.raises(Exception):
        new_cp_module(2, IntMatrix.zeros(2, 0), IntMatrix.identity(3))


def test_module_equality_compares_the_presentation():
    # one tau on two presentations of Z/2 x Z/2: a free and a trivial action
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    rel = IntMatrix.from_columns([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 3)
    a = new_cp_module(2, rel, swap)
    b = new_cp_module(2, IntMatrix.from_columns([[1, 1, 0], [2, 0, 0], [0, 0, 2]], 3), swap)
    assert a.group == b.group
    assert (tate(a).dim_h0, tate(a).dim_h1) == (0, 0)
    assert (tate(b).dim_h0, tate(b).dim_h1) == (2, 2)
    assert a != b and len({a, b}) == 2
    again = new_cp_module(2, rel, swap)
    assert again == a and hash(again) == hash(a)
    assert new_cp_module(3, rel, IntMatrix.identity(3)) != new_cp_module(2, rel, IntMatrix.identity(3))


def test_direct_sum_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        direct_sum(trivial_free_module(2), trivial_free_module(3))


# -- indecomposable torsion-free signatures ----------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_indecomposable_signatures(p):
    trivial = trivial_free_module(p)
    regular = free_regular_module(p)
    aug = augmentation_module(p)
    assert (tate(trivial).dim_h0, tate(trivial).dim_h1) == (1, 0)
    assert (tate(regular).dim_h0, tate(regular).dim_h1) == (0, 0)
    assert (tate(aug).dim_h0, tate(aug).dim_h1) == (0, 1)
    t = classify_free(trivial)
    assert (t.f, t.t, t.a) == (0, 1, 0)
    t = classify_free(regular)
    assert (t.f, t.t, t.a) == (1, 0, 0)
    t = classify_free(aug)
    assert (t.f, t.t, t.a) == (0, 0, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_classify_recovers_multiplicities_after_basis_change(p):
    rng = random.Random(100 + p)
    for _ in range(5):
        f, t, a = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        mod = trivial_free_module(p, 0)
        for _ in range(f):
            mod = direct_sum(mod, free_regular_module(p))
        for _ in range(t):
            mod = direct_sum(mod, trivial_free_module(p))
        for _ in range(a):
            mod = direct_sum(mod, augmentation_module(p))
        mod = conjugate(mod, *random_unimodular(rng, mod.ambient_rank))
        got = classify_free(mod)
        assert (got.f, got.t, got.a) == (f, t, a)
        assert mod.ambient_rank == f * p + t + a * (p - 1)


def test_classify_rejects_torsion():
    with pytest.raises(ModuleNotTorsionFree):
        classify_free(trivial_module(3, from_invariants((3,))))


# -- finite module properties ------------------------------------------------


def test_catalog_is_large_and_diverse():
    cat = finite_catalog()
    assert len(cat) >= 100
    assert {m.p for m in cat} == set(PRIMES)
    assert all(m.group.is_finite for m in cat)


def test_herbrand_equality_on_blocks():
    for p in PRIMES:
        for m in base_blocks(p):
            co = tate(m)
            assert m.group.is_finite and co.dim_h0 == co.dim_h1


@pytest.mark.parametrize("p,q,a", [(2, 5, 4), (3, 7, 2), (5, 11, 3), (7, 29, 16)])
def test_twisted_blocks_are_cohomologically_trivial(p, q, a):
    # free action of C_p on Z/q with q coprime to p kills both groups
    m = twist_block(p, q, a)
    co = tate(m)
    assert (co.dim_h0, co.dim_h1) == (0, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_trivial_p_torsion_dims(p):
    m = trivial_block(p, p)
    co = tate(m)
    assert (co.dim_h0, co.dim_h1) == (1, 1)
    m2 = trivial_block(p, p * p)
    co2 = tate(m2)
    assert (co2.dim_h0, co2.dim_h1) == (1, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_permutation_block_of_p_torsion(p):
    # (Z/p)^p permuted cyclically is induced, hence cohomologically trivial,
    # even though its fixed points (the diagonal) are not
    m = perm_block(p, p)
    co = tate(m)
    assert (co.dim_h0, co.dim_h1) == (0, 0)
    assert h0_and_fixed_points(m)[1].invariant_factors == (p,)


def test_brute_oracle_spot_checks():
    rng = random.Random(3)
    cat = [m for m in finite_catalog() if m.group.order <= 150]
    for m in rng.sample(cat, 12):
        co = tate(m)
        assert brute_tate_dims(m) == (co.dim_h0, co.dim_h1)


def test_fixed_points_against_brute_counts():
    for m in finite_catalog():
        if m.group.order > 150:
            continue
        counts = brute_counts(m)
        g = h0_and_fixed_points(m)[1]
        assert g.order == counts.fixed_order
        assert m.p ** g.p_rank(m.p) == counts.fixed_p_torsion


# -- tate and the fixed points against one quotient at a time ----------------


def _fixed_points_alone(m):
    """Ker S modulo 0, the one denominator of the subquotient engine."""
    s_op = m.tau - IntMatrix.identity(m.ambient_rank)
    zero = IntMatrix.zeros(m.ambient_rank, m.ambient_rank)
    ((rows, cols),) = intlinalg._subquotient_relations(m.group, s_op, (zero,))
    return cokernel(IntMatrix.from_rows(rows, cols=cols))


def test_one_degree_matches_tate():
    rng = random.Random(23)
    mods = finite_catalog()
    for example in (example_lens(5), example_lens(7), example_hempel(3, 4), example_hempel(5, 2)):
        h1 = example.h1
        mods += [h1] + [conjugate(h1, *random_unimodular(rng, h1.ambient_rank, 3 * h1.ambient_rank))
                        for _ in range(3)]
    specs = []
    for _ in range(300):
        try:
            specs.append(new_cp_module(*_random_spec(rng)))
        except CpModuleError:
            pass
    assert len(specs) >= 50
    mods += specs
    for m in mods:
        co = tate(m)
        assert (tate_dim(m, 0), tate_dim(m, 1)) == (co.dim_h0, co.dim_h1)
        assert h0_and_fixed_points(m) == (co.dim_h0, _fixed_points_alone(m))
    for q in (-1, 2):
        with pytest.raises(ValueError):
            tate_dim(mods[0], q)


def _assert_revalidates(m):
    # the constructor checks that tau descends and that tau^p = 1, so S
    # and N descend and S N = N S = 0, which is all the Tate layer
    # trusts; rebuilt from its relations and tau, the module must pass
    # those checks and come back equal, with an equal norm
    again = new_cp_module(m.p, m.group.relations, m.tau)
    assert again == m and again.norm == m.norm


def test_tate_and_fixed_points_match_the_checked_route():
    # the checked route is the validated constructor: the parts that _of
    # builds unchecked, and the modules built on a group they already
    # hold, each revalidate to themselves; on the finite ones, the Tate
    # dimensions and the fixed points match the brute-force oracle
    rng = random.Random(17)
    catalog = finite_catalog()
    h1s = []
    for example in (example_lens(5), example_hempel(3, 4)):
        h1 = example.h1
        h1s += [h1] + [conjugate(h1, *random_unimodular(rng, h1.ambient_rank)) for _ in range(4)]
    parts = [part for m in catalog + h1s for part in tor_and_free_parts(m)]
    trivials = [trivial_module(m.p, m.group) for m in rng.sample(catalog, 24) + h1s]
    assert any(m.group.free_rank for m in parts) and any(m.group.free_rank for m in trivials)
    finite = 0
    for m in parts + trivials:
        _assert_revalidates(m)
        if m.group.is_finite and m.group.order <= 200:
            finite += 1
            counts = brute_counts(m)
            h0, fixed = h0_and_fixed_points(m)
            assert (h0, tate_dim(m, 1)) == counts[:2]
            assert fixed.order == counts.fixed_order
            assert m.p ** fixed.p_rank(m.p) == counts.fixed_p_torsion
    assert finite >= 100


def test_raw_modules_still_fail_every_check():
    # a module is validated when it is built, so inputs that would break
    # the Tate layer are rejected there, each with its typed error, by
    # CpModule and new_cp_module alike
    g = from_invariants((2,), free_rank=1)  # relation (2, 0)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(TauDoesNotDescend):
        CpModule(2, g, swap)
    with pytest.raises(TauDoesNotDescend):
        new_cp_module(2, g.relations, swap)
    # the shear has infinite order; N is formed from tau, not passed in,
    # so no wrong N can stand beside it
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(TauOrderNotDividingP):
        CpModule(2, from_invariants((), 2), shear)
    with pytest.raises(TypeError):
        CpModule(2, from_invariants((), 2), shear, IntMatrix.from_rows([[1, 0], [0, 0]]))
    with pytest.raises(CpModuleError) as err:
        CpModule(2, g, IntMatrix.identity(3))
    assert type(err.value) is CpModuleError


# -- structural operators ----------------------------------------------------


def test_norm_operator_identities():
    for p in (2, 3, 5):
        for m in (free_regular_module(p), augmentation_module(p),
                  trivial_block(p, p * p), perm_block(p, 4)):
            n = m.norm
            tau = m.tau
            assert tau @ n == n
            assert n @ tau == n
            # transfer composed with itself is multiplication by p
            assert n @ n == p * n


def test_norm_is_the_plain_sum():
    lattices = [build(p) for p in PRIMES
                for build in (free_regular_module, augmentation_module, trivial_free_module)]
    for m in finite_catalog() + lattices:
        power = total = IntMatrix.identity(m.ambient_rank)
        for _ in range(m.p - 1):
            power = m.tau @ power
            total = total + power
        assert m.norm == total


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 23])
def test_norm_by_doubling_is_the_plain_sum(p):
    # _norm doubles from N_2 = 1 + tau; the identity holds for any square
    # tau, so it is checked on the catalog's modules and lattices, on lens
    # and hempel in random bases, and on random matrices
    rng = random.Random(p)
    taus = [m.tau for m in finite_catalog()]
    for build in (free_regular_module, augmentation_module, trivial_free_module):
        taus.append(build(p).tau)
    for h1 in (example_lens(p).h1, example_hempel(p, 3).h1):
        taus += [conjugate(h1, *random_unimodular(rng, h1.ambient_rank)).tau for _ in range(3)]
    taus += [IntMatrix(m, m, tuple(rng.randint(-2, 2) for _ in range(m * m)))
             for m in (0, 1, 2, 5)]
    for tau in taus:
        power = total = IntMatrix.identity(tau.rows)
        for _ in range(p - 1):
            power = tau @ power
            total = total + power
        assert cpmod._norm(tau, p) == total


def _assert_parts_validate(m):
    # tor_and_free_parts skips validation; the validated constructor must
    # accept each part and rebuild the same module and norm
    for part in tor_and_free_parts(m):
        _assert_revalidates(part)


def test_catalog_parts_validate():
    for m in finite_catalog():
        _assert_parts_validate(m)


def test_fixed_points_known():
    assert h0_and_fixed_points(trivial_module(3, from_invariants((9,))))[1] == from_invariants((9,))
    assert h0_and_fixed_points(free_regular_module(5))[1] == from_invariants((), 1)
    assert h0_and_fixed_points(augmentation_module(3))[1].is_trivial
    g = h0_and_fixed_points(perm_block(3, 9))[1]
    assert g.invariant_factors == (9,)


def test_tor_and_free_of_mixed_module():
    p = 3
    mixed = direct_sum(trivial_module(p, from_invariants((2, 6))),
                       augmentation_module(p))
    t, f = tor_and_free_parts(mixed)
    assert t.group.invariant_factors == (2, 6)
    assert t.group.free_rank == 0
    assert f.group == from_invariants((), p - 1)
    got = classify_free(f)
    assert (got.f, got.t, got.a) == (0, 0, 1)


def test_tor_of_torsion_free_and_free_of_finite():
    tor, free = tor_and_free_parts(free_regular_module(3))
    assert tor.group.is_trivial
    assert free.group == from_invariants((), 3)
    tor, free = tor_and_free_parts(trivial_module(3, from_invariants((4,))))
    assert free.group.is_trivial
    assert tor.group == from_invariants((4,))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.sampled_from(PRIMES))
def test_basis_change_invariance(seed, p):
    rng = random.Random(seed)
    blocks = base_blocks(p)
    m = rng.choice(blocks)
    if rng.random() < 0.5:
        m = direct_sum(m, rng.choice(blocks))
    c = conjugate(m, *random_unimodular(rng, m.ambient_rank))
    assert (tate(c).dim_h0, tate(c).dim_h1) == (tate(m).dim_h0, tate(m).dim_h1)
    assert h0_and_fixed_points(c) == h0_and_fixed_points(m)
    assert c.group == m.group


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.sampled_from(PRIMES),
       st.sampled_from((free_regular_module, augmentation_module, trivial_free_module)))
def test_tor_and_free_parts_survive_basis_change(seed, p, lattice):
    rng = random.Random(seed)
    block = rng.choice(base_blocks(p))
    m = direct_sum(block, lattice(p))
    c = conjugate(m, *random_unimodular(rng, m.ambient_rank))
    _assert_parts_validate(c)
    tor, free = tor_and_free_parts(c)
    assert tor.group == block.group
    assert (tate(tor).dim_h0, tate(tor).dim_h1) == (tate(block).dim_h0, tate(block).dim_h1)
    assert classify_free(free) == classify_free(lattice(p))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.sampled_from(PRIMES))
def test_replacing_generator_by_power_keeps_dims(seed, p):
    # tau and tau^k generate the same action for k coprime to p
    rng = random.Random(seed)
    m = rng.choice(base_blocks(p))
    base = (tate(m).dim_h0, tate(m).dim_h1)
    for k in range(2, p):
        mk = new_cp_module(p, m.group.relations, _power(m.tau, k))
        assert (tate(mk).dim_h0, tate(mk).dim_h1) == base


def test_direct_sum_dims_additive():
    rng = random.Random(11)
    for p in PRIMES:
        blocks = base_blocks(p)
        for _ in range(6):
            a, b = rng.choice(blocks), rng.choice(blocks)
            s = direct_sum(a, b)
            assert tate(s).dim_h0 == tate(a).dim_h0 + tate(b).dim_h0
            assert tate(s).dim_h1 == tate(a).dim_h1 + tate(b).dim_h1
