"""Modules over a cyclic group of prime order p, and their Tate cohomology.

A module is a finitely generated abelian group G = Z^m / L together with
an integer matrix tau whose induced map on G is an automorphism of order
dividing p. Building a CpModule checks that, so every module is valid.
With S = tau - 1 and N = 1 + tau + ... + tau^(p-1), which every module
keeps in the Smith coordinates of its group, formed once when it is built:

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
    _diagonal_group,
    _invariants,
    _reduced_rows,
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

    Building a module moves it once into the Smith coordinates y = u x of
    its group's form, where smith_group presents the group by the lattice
    D of the d_i e_i, i < rank: smith_tau = u tau u^-1, and smith_norm is
    its N with row i < rank in [0, d_i), exact modulo D (see _norm); all
    three are derived, so equality and hashing leave them out. Checks, in
    order: p prime, tau of the group's shape, smith_tau maps D into
    itself, tau is onto (its columns and the relations span Z^m), and
    tau^p = 1, on the free block's residues first when N can be long (see
    _order_fails_mod), then as S N = tau^p - 1 mapping into D (tau^(p-1)
    inverts a tau of order p, so the onto test runs only on a failure)."""

    p: int
    group: FgAbGroup
    tau: IntMatrix
    smith_group: FgAbGroup = field(init=False, repr=False)
    smith_tau: IntMatrix = field(init=False, repr=False)
    smith_norm: IntMatrix = field(init=False, repr=False)

    def __post_init__(self):
        p, group, tau = self.p, self.group, self.tau
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        m, dec = group.ambient_rank, group.smith
        if tau.rows != m or tau.cols != m:
            raise CpModuleError(f"tau must be {m}x{m}, got {tau.rows}x{tau.cols}")
        rank, diag = dec.rank, dec.diagonal[:dec.rank]
        moved = dec.u @ tau @ dec.u_inv
        # column j < rank times d_j must lie in D; d_i divides d_j for i <= j
        if (any(any(moved.row(i)[:rank]) for i in range(rank, m))
                or any(moved.at(i, j) * diag[j] % diag[i] for i in range(rank) for j in range(i))):
            raise TauDoesNotDescend("tau does not map the relation lattice into itself")
        # only N's free rows can be long, and they are zero left of the free block
        free_max = max(map(abs, moved.entries[rank * m:]), default=0)
        wrong_order = (p * ((m - rank) * free_max).bit_length() > _SHORT_NORM_BITS
                       and _order_fails_mod(_diagonal_block(moved, range(rank, m)), p))
        norm = None if wrong_order else _norm(moved, p, diag)
        if wrong_order or any(_reduced_rows((moved - IntMatrix.identity(m)) @ norm, diag).entries):
            # surjectivity on a f.g. group is equivalent to invertibility
            if not cokernel(tau.hstack(group.relations)).is_trivial:
                raise TauNotInvertible("tau is not surjective on the group")
            raise TauOrderNotDividingP(f"tau^{p} is not the identity on the group")
        self.__dict__.update(smith_group=_diagonal_group(diag, m), smith_tau=moved, smith_norm=norm)

    @classmethod
    def _of(cls, p, group, tau, smith_norm):
        """Unchecked constructor for a part of a valid module: group is its own
        Smith form, smith_norm is N of (tau, p) reduced as __post_init__ does."""
        m = object.__new__(cls)
        m.__dict__.update(p=p, group=group, tau=tau, smith_group=group, smith_tau=tau,
                          smith_norm=smith_norm)
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


def _norm(tau: IntMatrix, p: int, diagonal: tuple) -> IntMatrix:
    """N = 1 + tau + ... + tau^(p-1), p >= 2, by doubling on the bits of p
    from N_2 = 2 + S: N_2k = 2 N_k + (S N_k) N_k, as tau^k = 1 + S N_k, and
    N_(k+1) = 1 + N_k + S N_k, so each further bit costs two products and
    one more when it is set. Each step's row i is reduced into [0, d_i),
    d_i = diagonal[i]; tau maps the lattice D of the d_i e_i into itself,
    so N stays exact modulo D, and exact beyond."""
    one = IntMatrix.identity(tau.rows)
    s_op = _reduced_rows(tau, diagonal) - one
    bits = bin(p)[3:]
    n = _reduced_rows(one + one + s_op, diagonal)
    if bits[0] == "1":
        n = _reduced_rows(one + n + s_op @ n, diagonal)
    for bit in bits[1:]:
        n = _reduced_rows(n + n + (s_op @ n) @ n, diagonal)
        if bit == "1":
            n = _reduced_rows(one + n + s_op @ n, diagonal)
    return n


# When N's entries can be long, tau^p = 1 is first tested on residues, in
# O(log p) products, so a tau of the wrong order is rejected before N is
# formed. Only N(F), F the k x k free block of smith_tau, is exact, with
# entries below (k c)^p, c F's largest |entry|; under _SHORT_NORM_BITS
# bits, forming N costs about as much as the residue test, so it is skipped.
_RESIDUE_PRIME = 2**31 - 1
_SHORT_NORM_BITS = 4096


def _order_fails_mod(free: IntMatrix, p: int) -> bool:
    """True when F^p is not 1 modulo _RESIDUE_PRIME, F = free the action
    on the free quotient G / G_tor, so that tau^p is not 1 on the group."""
    residues = [_RESIDUE_PRIME] * free.rows
    base = power = _reduced_rows(free, residues)
    for bit in bin(p)[3:]:
        power = _reduced_rows(power @ power, residues)
        if bit == "1":
            power = _reduced_rows(power @ base, residues)
    return any(_reduced_rows(power - IntMatrix.identity(free.rows), residues).entries)


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
    whose rows are consumed. H^q is killed by p, so it is H^q (x) Z/p^2,
    which reducing a row modulo p^2 leaves as it is; each row with an
    entry outside (-p^2, p^2) is, and the column p^2 e_i appended for row
    i keeps the elimination's entries short. A group that is not
    elementary abelian (a free or Z/p^k part, k >= 2, shows as Z/p^2; a
    part prime to p vanishes) means the module's validation was broken."""
    (rows, cols), p, pp = relations, module.p, module.p ** 2
    long = [i for i, row in enumerate(rows) if max(map(abs, row), default=0) >= pp]
    for i in long:
        rows[i] = [x % pp for x in rows[i]]
    for i, row in enumerate(rows):
        row += [pp * (i == j) for j in long]
    factors, free_rank = _invariants(rows, cols + len(long))
    factors = [gcd(f, pp) for f in factors if f % p == 0] + [pp] * free_rank
    if any(f != p for f in factors):
        raise CpModuleError(f"H^{q} (x) Z/{pp} has invariant factors {factors}, not an "
                            f"elementary abelian {p}-group; module validation was broken")
    return len(factors)


def tate_dim(module: CpModule, q: int) -> int:
    """F_p dimension of the one Tate group H^q, q = 0 or 1, formed alone:
    Ker S / Im N for q = 0 and Ker N / Im S for q = 1."""
    if q not in (0, 1):
        raise ValueError(f"Tate degree must be 0 or 1, got {q}")
    s_op, norm = module.smith_tau - IntMatrix.identity(module.ambient_rank), module.smith_norm
    ker_of, im_of = (s_op, norm) if q == 0 else (norm, s_op)
    (relations,) = _subquotient_relations(module.smith_group, ker_of, (im_of,))
    return _elementary_dim(module, q, relations)


def tate(module: CpModule) -> TateCohomology:
    """Both Tate groups of the module, with F_p dimensions."""
    return TateCohomology(dim_h0=tate_dim(module, 0), dim_h1=tate_dim(module, 1))


def h0_and_fixed_points(module: CpModule) -> tuple:
    """(dim H^0, fixed points): Ker S modulo Im N and modulo 0, two
    quotients of one preimage of S."""
    m = module.ambient_rank
    s_op, norm = module.smith_tau - IntMatrix.identity(m), module.smith_norm
    h0, fixed = _subquotient_relations(module.smith_group, s_op, (norm, IntMatrix.zeros(m, m)))
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


def tor_and_free_parts(module: CpModule) -> tuple:
    """(torsion subgroup with the restricted action, torsion-free quotient
    G / G_tor with the induced action), sliced with no product and no
    Smith form. In Smith coordinates the first `rank` basis vectors span
    the preimage of the torsion, which tau keeps (validation checked the
    zero lower-left block), so the diagonal blocks of smith_tau and
    smith_norm are the parts' tau and N, on their own Smith forms."""
    dec, m = module.group.smith, module.ambient_rank
    return tuple(CpModule._of(module.p, group, _diagonal_block(module.smith_tau, span),
                              _diagonal_block(module.smith_norm, span))
                 for group, span in (
                     (_diagonal_group(dec.diagonal[:dec.rank], dec.rank), range(dec.rank)),
                     (_diagonal_group((), m - dec.rank), range(dec.rank, m))))


def _diagonal_block(x: IntMatrix, span: range) -> IntMatrix:
    """The square block of x on the rows and columns in span."""
    return IntMatrix._of(len(span), len(span), tuple(chain.from_iterable(
        x.row(i)[span.start:span.stop] for i in span)))


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
