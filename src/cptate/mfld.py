"""Two families of C_p-actions on closed 3-manifolds, given by their
first homology with the induced action plus branching metadata, and the
branch-count statements read off them: cpmod's upper, lower and
cor_lower, shared with number fields, and the fixed-point count, which
is this family's own.

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
    Verdict,
    augmentation_module,
    cor_lower,
    direct_sum,
    h0_and_fixed_points,
    lower,
    new_cp_module,
    tate_dim,
    tor_and_free_parts,
    trivial_free_module,
    trivial_module,
    upper,
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


def check_reznikov(e: ManifoldExample) -> Verdict:
    """Fixed classes of the torsion are exactly (Z/p)^(s-1), valid for
    rational homology spheres with p-torsion-free quotient and s > 0.
    Reads tor_fixed and free_rank."""
    met = e.free_rank == 0 and e.quotient_tor_p_trivial and e.s != 0
    bare = e.s >= 1 and e.tor_fixed == (e.p,) * (e.s - 1)
    rank = sum(1 for f in e.tor_fixed if f % e.p == 0)
    return Verdict("reznikov", rank, e.s - 1, met, bare)


def run_all_checks(e: ManifoldExample) -> dict:
    """The verdicts on e, by theorem. upperT needs no hypothesis; upper1
    needs a quotient with no free homology; lower1 needs s > 0 and H_1 =
    H_tor + H_free as modules; cor_lower needs quotient torsion with no
    p-part, and bounds the rank only where lower1's hypotheses hold."""
    return {
        "upperT": upper("upperT", e.s, e.dim_h0_h1, e.dim_h1_free),
        "upper1": upper("upper1", e.s, e.dim_h0_tor, e.dim_h1_free, e.quotient_free_rank == 0),
        "lower1": lower("lower1", e.s, e.dim_h0_tor, e.s > 0 and e.splits),
        "reznikov": check_reznikov(e),
        "cor_lower": cor_lower(e.p, e.s, e.tor_fixed, e.quotient_tor_p_trivial,
                               e.splits and e.s > 0),
    }


def expected_outcomes(e: ManifoldExample) -> dict:
    """Documented classification per check: (hypotheses_met, bare_holds).
    Where the hypotheses hold, bare_holds is also the verdict's passed.

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


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "theorem": v.theorem,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "hypotheses_met": v.hypotheses_met,
        "pass": v.passed,
        "bare_holds": v.bare_holds,
    }
