"""Two families of C_p-actions on closed 3-manifolds, given by their
first homology with the induced action plus branching metadata, and
checkers for the branch-count theorems on them.

The lens family is an action on L(p,1) with quotient S^3 branched over
3 circles. The hempel family has H_1 containing a nonsplit extension
Z + Z/p where the generator acts by (x, y) -> (x, x + y); it witnesses
that the splitting hypotheses in the sharper bounds cannot be dropped.
Branch counts and quotient data are declared metadata of the
construction, not computed from topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cpmod import (
    CpModule,
    augmentation_module,
    direct_sum,
    h0_and_fixed_points,
    new_cp_module,
    tate_dim,
    tor_and_free_parts,
    trivial_free_module,
    trivial_module,
)
from .intlinalg import IntMatrix, from_invariants


@dataclass(frozen=True)
class ManifoldExample:
    name: str
    p: int
    h1: CpModule
    s: int                       # branch circles in the quotient
    quotient_free_rank: int      # rank of H_1(quotient) mod torsion
    quotient_tor_p_trivial: bool  # quotient torsion has no p-part
    splits: bool                 # h1 = tor + free as C_p-modules
    # derived once from h1 in __post_init__, which replace() reruns
    dim_h0_h1: int = field(init=False, compare=False, repr=False)    # H^0(C_p, H_1)
    dim_h0_tor: int = field(init=False, compare=False, repr=False)   # H^0(C_p, H_tor)
    dim_h1_free: int = field(init=False, compare=False, repr=False)  # H^1(C_p, H_free)
    tor_fixed: tuple = field(init=False, compare=False, repr=False)  # H_tor^(C_p), finite
    free_rank: int = field(init=False, compare=False, repr=False)    # rank of H_free

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("branch count must be >= 0")
        # h1 is valid by construction, so its torsion and free parts are
        # cut from it unchecked. Only the Tate groups the checks read are
        # formed
        tor, free = tor_and_free_parts(self.h1)
        dim_h0_tor, tor_fixed = h0_and_fixed_points(tor)
        object.__setattr__(self, "dim_h0_h1", tate_dim(self.h1, 0))
        object.__setattr__(self, "dim_h0_tor", dim_h0_tor)
        object.__setattr__(self, "dim_h1_free", tate_dim(free, 1))
        object.__setattr__(self, "tor_fixed", tor_fixed.invariant_factors)
        object.__setattr__(self, "free_rank", free.group.free_rank)


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one inequality check on one example.

    passed is None when the theorem's hypotheses fail on the example; in
    that case bare_holds still records whether the raw inequality happens
    to hold, since the examples exist to show it can fail.
    """

    theorem: str
    lhs: int
    rhs: int
    hypotheses_met: bool
    passed: bool | None
    bare_holds: bool


def _verdict(name, lhs, rhs, met, bare):
    return TheoremVerdict(theorem=name, lhs=lhs, rhs=rhs, hypotheses_met=met,
                          passed=bare if met else None, bare_holds=bare)


# -- example constructors ----------------------------------------------------


def nonsplit_extension(p: int) -> CpModule:
    """Z + Z/p with tau(x, y) = (x, x + y): torsion and free parts are
    both trivial modules, but the extension does not split."""
    rel = IntMatrix.from_columns([[0, p]], 2)
    tau = IntMatrix.from_rows([[1, 0], [1, 1]])
    return new_cp_module(p, rel, tau)


def example_lens(p: int) -> ManifoldExample:
    """Cyclic action on the lens space L(p,1) with quotient S^3 branched
    over 3 circles; H_1 = Z/p (trivial action) + augmentation ideal."""
    h1 = direct_sum(trivial_module(p, from_invariants((p,))), augmentation_module(p))
    return ManifoldExample(name=f"lens(p={p})", p=p, h1=h1, s=3,
                           quotient_free_rank=0, quotient_tor_p_trivial=True,
                           splits=True)


def example_hempel(p: int, n: int) -> ManifoldExample:
    """Surgery family with s = n branch circles; H_1 = Z^(n-1) (trivial)
    + the nonsplit extension, so H_1 is not tor + free as a module."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    h1 = direct_sum(trivial_free_module(p, rank=n - 1), nonsplit_extension(p))
    return ManifoldExample(name=f"hempel(p={p},n={n})", p=p, h1=h1, s=n,
                           quotient_free_rank=n, quotient_tor_p_trivial=True,
                           splits=False)


# -- theorem checkers --------------------------------------------------------


def check_upperT(e: ManifoldExample) -> TheoremVerdict:
    """s <= 1 + dim H^0(C_p, H_1) + dim H^1(C_p, H_free). No hypotheses.
    Reads dim_h0_h1 and dim_h1_free."""
    rhs = 1 + e.dim_h0_h1 + e.dim_h1_free
    return _verdict("upperT", e.s, rhs, True, e.s <= rhs)


def check_upper1(e: ManifoldExample) -> TheoremVerdict:
    """s <= 1 + dim H^0(C_p, H_tor) + dim H^1(C_p, H_free), valid when the
    quotient has no free homology. Reads dim_h0_tor and dim_h1_free."""
    rhs = 1 + e.dim_h0_tor + e.dim_h1_free
    met = e.quotient_free_rank == 0
    return _verdict("upper1", e.s, rhs, met, e.s <= rhs)


def check_lower1(e: ManifoldExample) -> TheoremVerdict:
    """s >= 1 + dim H^0(C_p, H_tor), valid when s > 0 and H_1 splits.
    Reads dim_h0_tor."""
    rhs = 1 + e.dim_h0_tor
    met = e.s > 0 and e.splits
    return _verdict("lower1", e.s, rhs, met, e.s >= rhs)


def check_reznikov(e: ManifoldExample) -> TheoremVerdict:
    """Fixed classes of the torsion are exactly (Z/p)^(s-1), valid for
    rational homology spheres with p-torsion-free quotient and s > 0.
    Reads tor_fixed and free_rank."""
    met = e.free_rank == 0 and e.quotient_tor_p_trivial and e.s != 0
    bare = e.s >= 1 and e.tor_fixed == (e.p,) * (e.s - 1)
    rank = sum(1 for f in e.tor_fixed if f % e.p == 0)
    return _verdict("reznikov", rank, e.s - 1, met, bare)


def check_cor_lower_mfld(e: ManifoldExample) -> TheoremVerdict:
    """p-torsion of the fixed classes is elementary abelian, of rank at
    most s - 1 when H_1 splits and s > 0; valid when the quotient torsion
    has no p-part. Reads tor_fixed."""
    elementary = all(f % (e.p * e.p) for f in e.tor_fixed)
    rank = sum(1 for f in e.tor_fixed if f % e.p == 0)
    met = e.quotient_tor_p_trivial
    if e.splits and e.s > 0:
        bare = elementary and rank <= e.s - 1
    else:
        bare = elementary
    return _verdict("cor_lower", rank, e.s - 1, met, bare)


CHECKS = {
    "upperT": check_upperT,
    "upper1": check_upper1,
    "lower1": check_lower1,
    "reznikov": check_reznikov,
    "cor_lower": check_cor_lower_mfld,
}


def run_all_checks(e: ManifoldExample) -> dict:
    return {name: fn(e) for name, fn in CHECKS.items()}


def expected_outcomes(e: ManifoldExample) -> dict:
    """Documented classification per check: (hypotheses_met, outcome),
    where outcome is passed when hypotheses hold and bare_holds otherwise.

    The lens family satisfies every inequality whose hypotheses it meets
    and fails the fixed-point count (its free part is nonzero). The
    hempel family, with s = n, fails upper1 bare for n >= 3, fails
    lower1 bare for n = 1, and matches the fixed-point count only at
    n = 2.
    """
    family = e.name.split("(", 1)[0]
    if family == "lens":
        return {
            "upperT": (True, True),
            "upper1": (True, True),
            "lower1": (True, True),
            "reznikov": (False, False),
            "cor_lower": (True, True),
        }
    if family == "hempel":
        n = e.s
        return {
            "upperT": (True, True),
            "upper1": (False, n <= 2),
            "lower1": (False, n >= 2),
            "reznikov": (False, n == 2),
            "cor_lower": (True, True),
        }
    raise KeyError(f"no documented outcomes for example family {family!r}")


def verdict_to_dict(v: TheoremVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "hypotheses_met": v.hypotheses_met,
        "pass": v.passed,
        "bare_holds": v.bare_holds,
    }
