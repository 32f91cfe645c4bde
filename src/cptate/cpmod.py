"""Modules over a cyclic group of prime order p, and their Tate cohomology.

A module is a finitely generated abelian group G = Z^m / L together with
an integer matrix tau whose induced map on G is an automorphism of order
dividing p. Building a CpModule checks that, so every module is valid.
With S = tau - 1 and N = 1 + tau + ... + tau^(p-1), which every module
keeps as its `norm`, computed once when the module is built:

    H^0 = Ker S / Im N        (fixed points modulo norms)
    H^1 = Ker N / Im S

Both are elementary abelian p-groups, and for finite G they have equal
rank (the Herbrand quotient is trivial). S and N are polynomials in tau
that descend to G, and S N = N S = tau^p - 1 vanishes there, so the Tate
layer forms its subquotients with no check of its own. One entry each:
tate_dim or tate, h0_and_fixed_points, tor_and_free_parts.

The branch-count statements that read these numbers are written once
here, for number fields (G = Cl, s ramified places) and for 3-manifolds
(G = H_1, s branch circles) alike: upper, lower and cor_lower, each a
pure function of ints that returns a Verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    cokernel,
    snf,
    _cokernel_of,
    _cokernel_of_rows,
    _first_outside,
    _invariants,
    _subquotient_relations,
)


class CpModuleError(ValueError):
    """Base class for module construction and operation failures."""


class NotPrime(CpModuleError):
    pass


class TauDoesNotDescend(CpModuleError):
    """tau does not preserve the relation lattice."""


class TauNotInvertible(CpModuleError):
    """tau is not an automorphism of the presented group."""


class TauOrderNotDividingP(CpModuleError):
    """tau^p is not the identity on the presented group."""


class PrimeMismatch(CpModuleError):
    pass


class ModuleNotTorsionFree(CpModuleError):
    pass


class InconsistentRank(CpModuleError):
    """Cohomology dimensions are impossible for any sum of the three
    indecomposable torsion-free module types."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, eq=False)
class CpModule:
    """Action of C_p = <t | t^p> on group, with t acting via tau. Modules
    are equal when p, tau and the relations are: one tau on two
    presentations of one group can give non-isomorphic modules.

    Building a module validates it and forms norm, N = 1 + tau + ... +
    tau^(p-1) of this (tau, p); norm is derived, so equality and hashing
    leave it out. Checks, in order: p prime, tau of the group's shape,
    tau preserves the relation lattice, tau induces an automorphism (the
    lattice spanned by tau's columns together with the relations is all
    of Z^m), and tau^p = 1 on the group, tested on residues first when
    N's entries can be long (see _order_fails_mod) and then exactly as
    S N = tau^p - 1 = 0 there (tau^(p-1) inverts a tau of order p, so the
    invertibility test only names the error once the order test fails).
    The checks read the Smith form the group keeps, so none takes a
    second one of the relations. The torsion and free parts cut from a valid module are
    valid, and _of builds them unchecked."""

    p: int
    group: FgAbGroup
    tau: IntMatrix
    norm: IntMatrix = field(init=False, repr=False)

    def __post_init__(self):
        p, group, tau = self.p, self.group, self.tau
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        m, relations, rel_dec = group.ambient_rank, group.relations, group.smith
        if tau.rows != m or tau.cols != m:
            raise CpModuleError(f"tau must be {m}x{m}, got {tau.rows}x{tau.cols}")
        if _first_outside(rel_dec, rel_dec.u @ (tau @ relations)) is not None:
            raise TauDoesNotDescend("tau does not map the relation lattice into itself")
        norm_bits = p * (m * max(map(abs, tau.entries), default=0)).bit_length()
        wrong_order = norm_bits > _SHORT_NORM_BITS and _order_fails_mod(rel_dec, tau, p)
        norm = None if wrong_order else _norm(tau, p)
        if wrong_order or _first_outside(rel_dec, rel_dec.u @ (tau @ norm - norm)) is not None:
            # surjectivity on a f.g. group is equivalent to invertibility
            if not cokernel(tau.hstack(relations)).is_trivial:
                raise TauNotInvertible("tau is not surjective on the group")
            raise TauOrderNotDividingP(f"tau^{p} is not the identity on the group")
        object.__setattr__(self, "norm", norm)

    @classmethod
    def _of(cls, p, group, tau, norm):
        """Trusted constructor for a part cut from a valid module, which is
        valid too: norm must be N of (tau, p); __post_init__'s checks are
        skipped."""
        m = object.__new__(cls)
        m.__dict__.update(p=p, group=group, tau=tau, norm=norm)
        return m

    def __eq__(self, other):
        return (isinstance(other, CpModule) and (self.p, self.tau) == (other.p, other.tau)
                and self.group.relations == other.group.relations)

    def __hash__(self):
        return hash((self.p, self.tau, self.group.relations))

    @property
    def ambient_rank(self):
        return self.group.ambient_rank

    def __str__(self):
        return f"C_{self.p}-module on {self.group}"


def _norm(tau: IntMatrix, p: int) -> IntMatrix:
    """N = 1 + tau + ... + tau^(p-1), p >= 2, by doubling on the bits of p
    from N_2 = 1 + tau: N_2k = N_k + tau^k N_k and N_(k+1) = 1 + tau N_k,
    where tau^k = 1 + S N_k, so each further bit costs two products of
    large factors, and one more when it is set."""
    one = IntMatrix.identity(tau.rows)
    s_op = tau - one
    bits = bin(p)[3:]
    n = one + tau
    if bits[0] == "1":
        n = one + tau @ n
    for bit in bits[1:]:
        n = n + (one + s_op @ n) @ n
        if bit == "1":
            n = one + tau @ n
    return n


# When N's entries can be long, tau^p = 1 is first tested on residues, in
# O(log p) products, so a tau of the wrong order is rejected before N is
# formed over Z. The entries of N are below (m c)^p, c the largest |entry|
# of tau; under _SHORT_NORM_BITS bits, forming N by doubling costs about as
# much as the residue test, so it is skipped.
_RESIDUE_PRIME = 2**31 - 1
_SHORT_NORM_BITS = 4096


def _order_fails_mod(rel_dec, tau: IntMatrix, p: int) -> bool:
    """True when some column of tau^p - 1 lies outside L + l Z^m, L the
    relations' lattice, so that tau^p is not 1 on the group. l is the
    group's exponent e when the group is finite: then e Z^m lies in L and
    the test is exact. Otherwise l = _RESIDUE_PRIME. With u L = diag(d) w,
    w unimodular, x lies in L + l Z^m iff (u x)_i is 0 modulo gcd(d_i, l)
    below the rank and modulo l beyond it."""
    m, rank = tau.rows, rel_dec.rank
    ell = rel_dec.diagonal[rank - 1] if rank == m else _RESIDUE_PRIME

    def residues(a):
        return IntMatrix._of(m, m, tuple(x % ell for x in a.entries))

    base = power = residues(tau)
    for bit in bin(p)[3:]:
        power = residues(power @ power)
        if bit == "1":
            power = residues(power @ base)
    y = rel_dec.u @ (power - IntMatrix.identity(m))
    mods = [gcd(d, ell) for d in rel_dec.diagonal[:rank]] + [ell] * (m - rank)
    return any(x % g for i, g in enumerate(mods) for x in y.row(i))


def new_cp_module(p: int, relations: IntMatrix, tau: IntMatrix) -> CpModule:
    """The module Z^m / (columns of relations) with tau acting, validated
    as CpModule validates; its group keeps the relations' Smith form."""
    return CpModule(p, _cokernel_of(snf(relations)), tau)


def trivial_module(p: int, group: FgAbGroup) -> CpModule:
    """The group with tau acting as the identity."""
    return CpModule(p, group, IntMatrix.identity(group.ambient_rank))


@dataclass(frozen=True)
class TateCohomology:
    dim_h0: int
    dim_h1: int


def _elementary_dim(module: CpModule, q: int, relations: tuple) -> int:
    """F_p dimension of H^q, presented by relations, a (rows, cols) pair
    whose rows are consumed. The construction guarantees an elementary
    abelian p-group; a violation would mean the module's validation was
    broken, so it is an internal error rather than a verdict."""
    factors, free_rank = _invariants(*relations)
    if free_rank or any(f != module.p for f in factors):
        raise CpModuleError(
            f"H^{q} has invariant factors {factors} and free rank {free_rank}, not an "
            f"elementary abelian {module.p}-group; module validation was broken"
        )
    return len(factors)


def tate_dim(module: CpModule, q: int) -> int:
    """F_p dimension of the one Tate group H^q, q = 0 or 1, formed alone:
    Ker S / Im N for q = 0 and Ker N / Im S for q = 1."""
    if q not in (0, 1):
        raise ValueError(f"Tate degree must be 0 or 1, got {q}")
    s_op = module.tau - IntMatrix.identity(module.ambient_rank)
    ker_of, im_of = (s_op, module.norm) if q == 0 else (module.norm, s_op)
    (relations,) = _subquotient_relations(module.group, ker_of, (im_of,))
    return _elementary_dim(module, q, relations)


def tate(module: CpModule) -> TateCohomology:
    """Both Tate groups of the module, with F_p dimensions."""
    return TateCohomology(dim_h0=tate_dim(module, 0), dim_h1=tate_dim(module, 1))


def h0_and_fixed_points(module: CpModule) -> tuple:
    """(dim H^0, fixed points): Ker S modulo Im N and modulo 0, two
    quotients of one preimage of S."""
    m = module.ambient_rank
    s_op = module.tau - IntMatrix.identity(m)
    h0, fixed = _subquotient_relations(module.group, s_op, (module.norm, IntMatrix.zeros(m, m)))
    return _elementary_dim(module, 0, h0), _cokernel_of_rows(*fixed)


@dataclass(frozen=True)
class TypeMultiplicities:
    """Multiplicities (f, t, a) of the indecomposable torsion-free types:
    free Z[C_p] summands, trivial Z summands, augmentation-ideal summands."""

    f: int
    t: int
    a: int


def classify_free(module: CpModule) -> TypeMultiplicities:
    """Recover type multiplicities of a torsion-free module from rank and
    cohomology: t = dim H^0, a = dim H^1, f = (rank - t - a(p-1)) / p."""
    if module.group.invariant_factors:
        raise ModuleNotTorsionFree(f"{module.group} has torsion")
    rank = module.group.free_rank
    co = tate(module)
    t, a = co.dim_h0, co.dim_h1
    rem = rank - t - a * (module.p - 1)
    if rem < 0 or rem % module.p:
        raise InconsistentRank(
            f"rank {rank} with cohomology dims ({t}, {a}) fits no type decomposition"
        )
    return TypeMultiplicities(f=rem // module.p, t=t, a=a)


def _block(mat: IntMatrix, rows: range, cols: range) -> IntMatrix:
    n, e = mat.cols, mat.entries
    return IntMatrix._of(len(rows), len(cols), tuple(chain.from_iterable(
        e[i * n + cols.start:i * n + cols.stop] for i in rows)))


def tor_and_free_parts(module: CpModule) -> tuple:
    """(torsion subgroup with the restricted action, torsion-free quotient
    G / G_tor with the induced action), cut from one conjugation. In the
    coordinates y = U x of the Smith form that the group keeps, the first
    `rank` basis vectors span the preimage of the torsion, which the Smith
    diagonal presents. tau keeps it, so U tau U^-1 has a zero lower-left
    block, and its upper-left and lower-right blocks act on the two parts.
    N is a polynomial in tau, so the blocks of U N U^-1 are the parts' N.
    U^-1 is the one that Smith form carries, so no second form inverts U."""
    dec = module.group.smith
    tau, norm = (dec.u @ x @ dec.u_inv for x in (module.tau, module.norm))
    tor, free = range(dec.rank), range(dec.rank, module.ambient_rank)
    if not _block(tau, free, tor).is_zero():
        raise CpModuleError("torsion subgroup is not tau-stable; validation broken")
    diag = dec.diagonal
    rel = IntMatrix._of(dec.rank, dec.rank, tuple(diag[i] if i == j else 0
                                                  for i in tor for j in tor))
    return (CpModule._of(module.p, cokernel(rel), _block(tau, tor, tor), _block(norm, tor, tor)),
            CpModule._of(module.p, cokernel(IntMatrix.zeros(len(free), 0)),
                         _block(tau, free, free), _block(norm, free, free)))


def direct_sum(a: CpModule, b: CpModule) -> CpModule:
    if a.p != b.p:
        raise PrimeMismatch(f"cannot sum a C_{a.p}-module with a C_{b.p}-module")
    ra, rb = a.group.relations, b.group.relations
    rel = IntMatrix.block_diag([ra, rb])
    tau = IntMatrix.block_diag([a.tau, b.tau])
    return new_cp_module(a.p, rel, tau)


# -- standard torsion-free building blocks ---------------------------------


def free_regular_module(p: int) -> CpModule:
    """Z[C_p]: rank p, generator permuting the basis cyclically."""
    cols = [[1 if i == (j + 1) % p else 0 for i in range(p)] for j in range(p)]
    tau = IntMatrix.from_columns(cols, p)
    return new_cp_module(p, IntMatrix.zeros(p, 0), tau)


def trivial_free_module(p: int, rank: int = 1) -> CpModule:
    return new_cp_module(p, IntMatrix.zeros(rank, 0), IntMatrix.identity(rank))


def augmentation_module(p: int) -> CpModule:
    """Z[zeta_p] = Z[x]/(1 + x + ... + x^(p-1)), generator acting by zeta.

    Companion matrix on the basis 1, zeta, ..., zeta^(p-2).
    """
    n = p - 1
    cols = []
    for j in range(n - 1):
        cols.append([1 if i == j + 1 else 0 for i in range(n)])
    cols.append([-1] * n)
    tau = IntMatrix.from_columns(cols, n)
    return new_cp_module(p, IntMatrix.zeros(n, 0), tau)


# -- branch-count statements ------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one branch-count statement lhs against rhs on one field
    or example. bare_holds records whether the raw statement holds; passed
    is bare_holds when the hypotheses are met and None otherwise, since
    the examples exist to show that a statement can fail without them."""

    theorem: str
    lhs: int
    rhs: int
    hypotheses_met: bool
    bare_holds: bool

    @property
    def passed(self) -> bool | None:
        return self.bare_holds if self.hypotheses_met else None


def upper(theorem: str, s: int, h0: int, h1_free: int, hypotheses_met: bool = True) -> Verdict:
    """s <= 1 + h0 + h1_free: h0 = dim H^0 of the torsion side (Cl, H_tor
    or H_1) and h1_free = dim H^1 of the free side (units mod torsion,
    H_free)."""
    rhs = 1 + h0 + h1_free
    return Verdict(theorem, s, rhs, hypotheses_met, s <= rhs)


def lower(theorem: str, s: int, h0: int, hypotheses_met: bool = True) -> Verdict:
    """s >= 1 + h0, h0 = dim H^0 of the torsion side (Cl or H_tor)."""
    rhs = 1 + h0
    return Verdict(theorem, s, rhs, hypotheses_met, s >= rhs)


def cor_lower(p: int, s: int, fixed: tuple, hypotheses_met: bool = True,
              bounded: bool = True) -> Verdict:
    """The p-part of the fixed classes, with invariant factors fixed, is
    elementary abelian, and when bounded its rank is at most s - 1."""
    elementary = all(f % (p * p) for f in fixed)
    rank = sum(1 for f in fixed if f % p == 0)
    return Verdict("cor_lower", rank, s - 1, hypotheses_met,
                   elementary and (not bounded or rank <= s - 1))
