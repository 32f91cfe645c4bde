"""Quadratic fields as C_2-module data, plus cyclic-cubic record checks.

Class groups are computed through binary quadratic forms of the field
discriminant: reduced positive-definite forms under Gauss composition for
d < 0, and cycles of reduced indefinite forms (narrow classes) for d > 0.
The reduced forms are listed by first coefficient a, from the square roots
of D modulo 4a, in O~(sqrt|D|) steps.
The structure comes from one relation lattice on those classes through
`cokernel`; the wide class group is the narrow group modulo the class of
(-1, b0, *), one more relation column. Fundamental units come from the
continued fraction of sqrt(d) through the Pell equation u^2 - d v^2 = +-4.
Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cpmod import CpModule, new_cp_module, tate, fixed_points, is_prime
from .intlinalg import IntMatrix, cokernel, from_invariants


class NotSquareFree(ValueError):
    pass


class NotReal(ValueError):
    """Operation needs a real quadratic field (d > 1)."""


class MalformedRecord(ValueError):
    """A cyclic-cubic input record fails validation."""


class ReductionLimit(RuntimeError):
    """A reduction loop hit its step cap: indefinite form reduction, or
    the continued fraction of sqrt(d) in the Pell solver. The message
    names the discriminant or d."""


# -- elementary number theory ----------------------------------------------


def primes_upto(n: int) -> list:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(n: int) -> dict:
    """Prime factorization of |n| by trial division, as {prime: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def _xgcd(a: int, b: int):
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), extending the Jacobi symbol to all n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- field basics -----------------------------------------------------------


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)) for square-free d not in {0, 1}."""

    d: int
    discriminant: int


def quadratic_field(d: int) -> QuadraticField:
    if d in (0, 1):
        raise NotSquareFree(f"d = {d} does not give a quadratic field")
    if not is_squarefree(d):
        raise NotSquareFree(f"d = {d} is not square-free")
    disc = d if d % 4 == 1 else 4 * d
    return QuadraticField(d=d, discriminant=disc)


@dataclass(frozen=True)
class RamificationData:
    finite_ramified: tuple
    s0: int
    s_inf: int
    s: int


@lru_cache(maxsize=1024)
def ramification(d: int) -> RamificationData:
    """Ramified primes of Q(sqrt(d))/Q: divisors of the discriminant, plus
    the archimedean place exactly when the field is imaginary. Memoised,
    since every check of a field reads it."""
    field = quadratic_field(d)
    finite = tuple(sorted(factorize(field.discriminant)))
    s_inf = 1 if d < 0 else 0
    return RamificationData(
        finite_ramified=finite, s0=len(finite), s_inf=s_inf, s=len(finite) + s_inf
    )


SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


def classify_prime(d: int, q: int) -> str:
    """Splitting type of the rational prime q in Q(sqrt(d))."""
    field = quadratic_field(d)
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    k = kronecker(field.discriminant, q)
    return RAMIFIED if k == 0 else (SPLIT if k == 1 else INERT)


# -- binary quadratic forms -------------------------------------------------
# forms are (a, b, c) with b^2 - 4ac = D, always primitive here since D is
# a fundamental discriminant


def _principal_form(D: int):
    b = D & 1
    return (1, b, (b * b - D) // 4)


def _compose_raw(f1, f2, D):
    # Dirichlet composition; valid for primitive forms of either sign of D
    a1, b1, _ = f1
    a2, b2, _ = f2
    s = (b1 + b2) // 2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, s)
    a3 = (a1 * a2) // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * abs(a3)
    c3 = (b3 * b3 - D) // (4 * a3)
    return (a3, b3, c3)


def _definite_reduce(f, D):
    # standard reduction of positive definite forms: -a < b <= a <= c,
    # with b >= 0 when a == c
    a, b, c = f
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            b2 = b % (2 * a)
            if b2 > a:
                b2 -= 2 * a
            c = (b2 * b2 - D) // (4 * a)
            b = b2
            continue
        break
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def _is_reduced_indefinite(f, D) -> bool:
    a, b, c = f
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    return (t + b) * (t + b) > D and (t - b <= 0 or (t - b) * (t - b) < D)


def _rho(f, D, sq):
    # one reduction step for indefinite forms (Cohen's rho operator)
    a, b, c = f
    ac = abs(c)
    if c * c > D:
        t = (-b) % (2 * ac)
        r = t if t <= ac else t - 2 * ac
    else:
        r = sq - ((sq + b) % (2 * ac))
    return (c, r, (r * r - D) // (4 * c))


def _indefinite_reduce(f, D, sq):
    for _ in range(10000):
        if _is_reduced_indefinite(f, D):
            return f
        f = _rho(f, D, sq)
    raise ReductionLimit(f"D = {D}: form {f} not reduced after 10000 steps")


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p not dividing n, by
    Tonelli-Shanks, or None when n is not a square modulo p."""
    n %= p
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _roots_mod_4a(D: int, bound: int):
    """Yield (a, roots) for each a <= bound that has roots: every r mod 2a
    with r^2 = D (mod 4a), which is all of them, since (r + 2a)^2 = r^2
    (mod 4a).

    With a = 2^k o, o odd, the roots are the CRT combination of those
    modulo 2^(k+1) and those modulo o. The roots modulo o are built
    multiplicatively over a smallest-prime-factor sieve: at p^e || o with p
    prime to D, Tonelli-Shanks at p, Newton-lifted to p^e; an odd p that
    divides the fundamental discriminant D divides it once, so it leaves
    the root 0 when e = 1 and none when e > 1. The 2-adic roots are in
    closed form. For odd D, k = 0 gives the odd r, and k > 0 needs
    D = 1 (mod 8) and gives +-s, s a 2-adic square root of D lifted one
    bit at a time. For D = 4d', 4 does not divide a, and r is even when
    k = 0 and 2 (d' mod 2) modulo 4 when k = 1.
    """
    if D % 2:
        two = [(2, (1,))]
        if D % 8 == 1:
            s, m = 1, 4  # s^2 = D (mod 2m)
            while m <= 2 * bound:
                two.append((m, (s, m - s)))
                if (s * s - D) % (4 * m):
                    s += m
                m *= 2
    else:
        two = [(2, (0,)), (4, (2 * (D // 4 % 2),))]
    spf = list(range(bound + 1))
    for p in range(3, isqrt(bound) + 1, 2):
        if spf[p] == p:
            for n in range(p * p, bound + 1, 2 * p):
                if spf[n] == n:
                    spf[n] = p
    odd = [()] * (bound + 1)  # odd[o]: the roots of D modulo odd o
    for o in range(1, bound + 1, 2):
        if o == 1:
            roots = (0,)
        else:
            p = q = spf[o]
            while o % (q * p) == 0:
                q *= p
            rest = o // q
            if rest > 1:
                r1, r2 = odd[q], odd[rest]
                if not (r1 and r2):
                    continue
                inv = pow(q, -1, rest)
                roots = [x + q * ((y - x) * inv % rest) for x in r1 for y in r2]
            elif D % p == 0:
                if q > p:
                    continue
                roots = (0,)
            else:
                t = _sqrt_mod_prime(D, p)
                if t is None:
                    continue
                while (t * t - D) % q:
                    t = (t - (t * t - D) * pow(2 * t, -1, q)) % q
                roots = (t, q - t)
            odd[o] = roots
        for m, two_roots in two:
            a = o * m // 2
            if a > bound:
                break
            inv = pow(o, -1, m)
            yield a, [r + o * ((u - r) * inv % m) for u in two_roots for r in roots]


def _reduced_forms(D: int) -> list:
    """The reduced forms of discriminant D, sorted, from the square roots
    of D modulo 4a for each first coefficient a.

    D < 0: -a < b <= a <= c, with b >= 0 when a == c; 3a^2 <= |D| bounds a.
    D > 0: 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, so a <= isqrt(D); for
    a > 0 these b fill an interval of at most 2a integers, which each root
    class modulo 2a meets at most once. Each (a, b, c) comes with
    (-a, b, -c).
    """
    forms = []
    if D < 0:
        for a, roots in _roots_mod_4a(D, isqrt(-D // 3)):
            for r in roots:
                b = r if r <= a else r - 2 * a
                c = (b * b - D) // (4 * a)
                if c > a or (c == a and b >= 0):
                    forms.append((a, b, c))
    else:
        sq = isqrt(D)
        for a, roots in _roots_mod_4a(D, sq):
            # b > |sqrt(D) - 2a| in integers, sqrt(D) being irrational
            lo = max(sq - 2 * a + 1, 2 * a - sq)
            for r in roots:
                b = lo + (r - lo) % (2 * a)
                if b <= sq:
                    c = (b * b - D) // (4 * a)
                    forms += [(a, b, c), (-a, b, -c)]
    return sorted(forms)


# -- generic structure of a finite abelian group given by a black box -------


def _relation_lattice(elements, op, identity):
    """Coordinates of every element on greedily chosen generators, and the
    generators' relations as matrix columns; the group is their cokernel.

    The next generator g is the first element outside the span so far. Its
    first power g^n inside the span gives the relation n e_g - coords(g^n),
    and the span grows by the cosets g^i span for 0 < i < n, so each element
    is composed about once.
    """
    coords = {identity: ()}
    relations = []
    for g in elements:
        if g in coords:
            continue
        span = list(coords.items())
        coords = {x: c + (0,) for x, c in span}
        power, n = g, 1
        while power not in coords:
            for x, c in span:
                coords[op(power, x)] = c + (n,)
            power, n = op(power, g), n + 1
        relations.append(tuple(-x for x in coords[power][:-1]) + (n,))
    k = len(relations)
    rel = IntMatrix.from_columns([r + (0,) * (k - len(r)) for r in relations], k)
    return coords, rel


# -- class groups -----------------------------------------------------------


@dataclass(frozen=True)
class ClassData:
    d: int
    discriminant: int
    invariants: tuple          # ordinary (wide) class group
    class_number: int
    narrow_invariants: tuple | None   # d > 0 only
    narrow_class_number: int | None
    negative_pell_class_trivial: bool | None  # d > 0: is the (-1,*,*) class principal
    dim_h0_cl: int             # dim H^0(C_2, Cl)
    dim_h1_cl: int             # dim H^1(C_2, Cl)
    fixed_free_rank: int       # Cl^(C_2), the fixed classes
    fixed_invariants: tuple
    unit_h1_dim: int           # dim H^1(C_2, units/torsion)


@lru_cache(maxsize=1024)
def _class_cohomology(inv: tuple) -> tuple:
    """(dim H^0, dim H^1, fixed free rank, fixed invariant factors) of the
    class module with invariant factors inv. Inversion is -1 on every
    presentation, so inv fixes the module up to isomorphism and fields
    with one class-group structure share the entry."""
    cl = _class_module(inv)
    co = tate(cl)
    fixed = fixed_points(cl)
    return co.dim_h0, co.dim_h1, fixed.free_rank, fixed.invariant_factors


@lru_cache(maxsize=2)
def _unit_h1_dim(real: bool) -> int:
    """dim H^1(C_2, units/torsion). The unit module depends only on the
    sign of d, so Q(sqrt(2)) and Q(sqrt(-1)) stand for every field."""
    return tate(unit_module(2 if real else -1)).dim_h1


def _class_record(d, D, inv, h, narrow_inv, narrow_h, neg_trivial) -> ClassData:
    """The field's record; its cohomology is looked up by isomorphism type."""
    return ClassData(d, D, inv, h, narrow_inv, narrow_h, neg_trivial,
                     *_class_cohomology(inv), _unit_h1_dim(d > 0))


@lru_cache(maxsize=1024)
def _class_data(d: int) -> ClassData:
    """The field's record. Each sign supplies its classes' representatives
    and cls_of, the class of a form: the reduced forms for d < 0, one
    reduced form per cycle for d > 0. The class group (d < 0) or the
    narrow class group (d > 0) is the cokernel of one relation lattice on
    them; the wide group is the narrow group modulo the class of
    (-1, b0, *), that is the cokernel of the same lattice plus that
    class's coordinates as one more column."""
    D = quadratic_field(d).discriminant
    if d < 0:
        reps = _reduced_forms(D)

        def cls_of(form):
            return _definite_reduce(form, D)
    else:
        sq = isqrt(D)
        cycle_of = {}
        reps = []
        for f in _reduced_forms(D):
            if f in cycle_of:
                continue
            orbit = [f]
            g = _rho(f, D, sq)
            while g != f:
                orbit.append(g)
                g = _rho(g, D, sq)
            rep = min(orbit)
            for h in orbit:
                cycle_of[h] = rep
            reps.append(rep)

        def cls_of(form):
            return cycle_of[_indefinite_reduce(form, D, sq)]

    def op(x, y):
        return cls_of(_compose_raw(x, y, D))

    ident = cls_of(_principal_form(D))
    coords, rel = _relation_lattice(reps, op, ident)
    narrow = cokernel(rel)
    if d < 0:
        return _class_record(d, D, narrow.invariant_factors, narrow.order, None, None, None)
    b0 = D & 1
    neg = cls_of((-1, b0, (D - b0 * b0) // 4))
    wide = cokernel(rel.hstack(IntMatrix.from_columns([coords[neg]], rel.rows)))
    return _class_record(d, D, wide.invariant_factors, wide.order,
                         narrow.invariant_factors, narrow.order, neg == ident)


def class_number(d: int) -> int:
    return _class_data(d).class_number


def _class_module(inv: tuple) -> CpModule:
    # on invariant-factor generators inversion is minus the identity, so
    # the module is presented diagonally
    k = len(inv)
    rel = IntMatrix.diagonal(list(inv), rows=k, cols=k)
    return new_cp_module(2, rel, -IntMatrix.identity(k))


def class_group(d: int) -> CpModule:
    """The ideal class group as a C_2-module, Galois acting by inversion."""
    return _class_module(_class_data(d).invariants)


def narrow_class_invariants(d: int) -> tuple:
    if d < 2:
        raise NotReal(f"narrow/wide distinction needs d > 1, got {d}")
    return _class_data(d).narrow_invariants


# -- units ------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers, written x + y*w where
    w = (1 + sqrt(d))/2 when d = 1 mod 4 and w = sqrt(d) otherwise."""

    d: int
    x: int
    y: int
    norm: int

    def __post_init__(self):
        if self.d % 4 == 1:
            n = self.x * self.x + self.x * self.y - (self.d - 1) // 4 * self.y * self.y
        else:
            n = self.x * self.x - self.d * self.y * self.y
        if n != self.norm or self.norm not in (1, -1):
            raise ValueError(f"norm identity fails: computed {n}, stored {self.norm}")


def _pell4(d: int):
    """Minimal (u, v) with u, v > 0 and u^2 - d v^2 = +-4.

    For d < 17 a direct search on v suffices (the units are tiny). For
    d >= 17 every solution is primitive up to a factor of 2 and |N| <
    sqrt(d), so the classical theorem places u/v (or u/2 / v/2) among the
    continued-fraction convergents of sqrt(d); the first convergent that
    works is the smallest unit.
    """
    if d < 17:
        v = 1
        while True:
            for n in (-4, 4):
                t = d * v * v + n
                if t > 0:
                    u = isqrt(t)
                    if u * u == t:
                        return u, v
            v += 1
    sq = isqrt(d)
    P, Q, a = 0, 1, sq
    p0, q0 = 1, 0
    p1, q1 = sq, 1
    sign = -1
    for _ in range(1_000_000):
        # p_k^2 - d q_k^2 = (-1)^(k+1) Q_(k+1), so the norm of the k-th
        # convergent is read off the next Q, which stays below 2 sqrt(d)
        P = a * Q - P
        Q = (d - P * P) // Q
        n = sign * Q
        if n in (1, -1):
            return 2 * p1, 2 * q1
        if n in (4, -4) and d % 4 == 1:
            return p1, q1
        a = (P + sq) // Q
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        sign = -sign
    raise ReductionLimit(f"d = {d}: continued fraction of sqrt(d) did not close "
                         "in 10^6 steps")


@lru_cache(maxsize=4096)
def fundamental_unit(d: int) -> FundamentalUnit:
    field = quadratic_field(d)
    if d < 2:
        raise NotReal(f"units are finite for d = {d}; need d > 1")
    u, v = _pell4(d)
    norm = (u * u - d * v * v) // 4
    if d % 4 == 1:
        x, y = (u - v) // 2, v
    else:
        x, y = u // 2, v // 2
    return FundamentalUnit(d=d, x=x, y=y, norm=norm)


def unit_module(d: int) -> CpModule:
    """Units modulo torsion as a C_2-module: for real fields an infinite
    cyclic group inverted by conjugation, for imaginary fields zero."""
    quadratic_field(d)
    if d < 0:
        return new_cp_module(2, IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
    return new_cp_module(2, IntMatrix.zeros(1, 0), IntMatrix.from_rows([[-1]]))


# -- theorem checks ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    lhs: int
    rhs: int
    passed: bool


def check_upper_nf(d: int) -> CheckResult:
    """s0 <= 1 + dim H^0(C_2, Cl) + dim H^1(C_2, units/torsion); reads
    the record's dim_h0_cl and unit_h1_dim."""
    ram = ramification(d)
    data = _class_data(d)
    rhs = 1 + data.dim_h0_cl + data.unit_h1_dim
    return CheckResult(lhs=ram.s0, rhs=rhs, passed=ram.s0 <= rhs)


def check_lower_nf(d: int) -> CheckResult:
    """s >= 1 + dim H^0(C_2, Cl), counting the archimedean place in s;
    reads the record's dim_h0_cl."""
    ram = ramification(d)
    rhs = 1 + _class_data(d).dim_h0_cl
    return CheckResult(lhs=ram.s, rhs=rhs, passed=ram.s >= rhs)


def gauss_identity(d: int) -> CheckResult:
    """s - dim Cl^(C_2) against the unit-norm prediction (1 for norm -1,
    2 for norm +1); reads the record's dim_h0_cl.

    Caution: the prediction has genuine counterexamples (d = 34 is the
    smallest), where -1 is a rational norm from the field but not the
    norm of a unit; the returned verdict records them honestly.
    """
    if d < 2:
        raise NotReal(f"gauss identity needs d > 1, got {d}")
    ram = ramification(d)
    value = ram.s - _class_data(d).dim_h0_cl
    expected = 1 if fundamental_unit(d).norm == -1 else 2
    return CheckResult(lhs=value, rhs=expected, passed=value == expected)


def gauss_witness(d: int) -> tuple | None:
    """(x, z) with x^2 - d*1^2 = -z^2 and x > 0 smallest, so that -1 =
    (x/z)^2 - d*(1/z)^2 is a rational norm from Q(sqrt d); None when d is
    not a sum of two squares. A failing gauss_identity has one: -1 is then
    a rational norm but not the norm of a unit (d = 34: 3^2 - 34 = -5^2)."""
    for x in range(1, isqrt(d // 2) + 1):
        z = isqrt(d - x * x)
        if z * z == d - x * x:
            return x, z
    return None


def check_cor_lower_nf(d: int) -> CheckResult:
    """Fixed classes form an elementary abelian 2-group of rank <= s - 1;
    reads the record's fixed_free_rank and fixed_invariants."""
    ram = ramification(d)
    data = _class_data(d)
    fixed = data.fixed_invariants
    elementary = data.fixed_free_rank == 0 and all(f % 4 for f in fixed)
    rank = sum(1 for f in fixed if f % 2 == 0)
    return CheckResult(lhs=rank, rhs=ram.s - 1,
                       passed=elementary and rank <= ram.s - 1)


HEEGNER_DS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def nine_fields_check(bound: int = -200) -> tuple:
    """Square-free d in [bound, -1] with trivial class group, by |d|."""
    if bound >= 0:
        raise ValueError("bound must be negative")
    out = []
    for a in range(1, -bound + 1):
        d = -a
        if not is_squarefree(d):
            continue
        if class_number(d) == 1:
            out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class SplittingDensity:
    d: int
    prime_bound: int
    split: int
    inert: int
    ramified: int
    total: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.split, self.total)


def splitting_density(d: int, prime_bound: int) -> SplittingDensity:
    quadratic_field(d)
    counts = {SPLIT: 0, INERT: 0, RAMIFIED: 0}
    ps = primes_upto(prime_bound)
    for q in ps:
        counts[classify_prime(d, q)] += 1
    return SplittingDensity(d=d, prime_bound=prime_bound,
                            split=counts[SPLIT], inert=counts[INERT],
                            ramified=counts[RAMIFIED], total=len(ps))


# -- cyclic cubic records ----------------------------------------------------


@dataclass(frozen=True)
class CubicRecord:
    """Conductor and class-group invariant factors of a cyclic cubic field.
    declared_s, when present, must match the conductor's prime count."""

    conductor: int
    invariants: tuple
    declared_s: int | None = None


def _cubic_conductor_primes(f: int) -> int:
    """Number of primes dividing an admissible cyclic-cubic conductor:
    a product of distinct primes = 1 mod 3 with at most one factor of 9."""
    if f < 2:
        raise MalformedRecord(f"conductor {f} out of range")
    factors = factorize(f)
    for p, e in factors.items():
        if p == 3:
            if e != 2:
                raise MalformedRecord(
                    f"conductor {f}: 3 appears with exponent {e}, only 9 is admissible"
                )
        elif e != 1:
            raise MalformedRecord(f"conductor {f}: repeated prime {p}")
        elif p % 3 != 1:
            raise MalformedRecord(f"conductor {f}: prime {p} is not 1 mod 3")
    return len(factors)


def cubic_rank_check(record: CubicRecord) -> CheckResult:
    """3-rank(Cl) >= s - 1 where s counts primes dividing the conductor."""
    s = _cubic_conductor_primes(record.conductor)
    if record.declared_s is not None and record.declared_s != s:
        raise MalformedRecord(
            f"conductor {record.conductor} has {s} prime divisors, record claims {record.declared_s}"
        )
    for v in record.invariants:
        if not isinstance(v, int) or v < 2:
            raise MalformedRecord(f"invariant factor {v!r} out of range")
    for x, y in zip(record.invariants, record.invariants[1:]):
        if y % x:
            raise MalformedRecord(
                f"invariants {record.invariants} are not a divisibility chain"
            )
    cl = from_invariants(record.invariants)
    rank3 = cl.p_rank(3)
    return CheckResult(lhs=rank3, rhs=s - 1, passed=rank3 >= s - 1)


def _parse_cubic_row(lineno: int, row: list) -> CubicRecord | None:
    """One CSV row to a record; None for a blank row."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != 2:
        raise MalformedRecord(f"line {lineno}: expected 2 fields, got {len(row)}")
    try:
        conductor = int(row[0].strip())
    except ValueError:
        raise MalformedRecord(f"line {lineno}: conductor {row[0]!r} is not an integer")
    text = row[1].strip()
    try:
        invariants = tuple(int(t) for t in text.split(";")) if text else ()
    except ValueError:
        raise MalformedRecord(f"line {lineno}: invariants {row[1]!r} unparseable")
    return CubicRecord(conductor=conductor, invariants=invariants)


def scan_cubic_csv(path):
    """Yield (lineno, CubicRecord | MalformedRecord) per data row, so a
    caller can keep going past bad rows. A bad header raises outright.

    Format: header 'conductor,class_invariants'; invariants are a
    ;-separated ascending divisibility chain, empty for a trivial group.
    """
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["conductor", "class_invariants"]:
            raise MalformedRecord(f"bad header {header!r}, want conductor,class_invariants")
        for lineno, row in enumerate(reader, start=2):
            try:
                record = _parse_cubic_row(lineno, row)
            except MalformedRecord as err:
                yield lineno, err
                continue
            if record is not None:
                yield lineno, record


def read_cubic_csv(path) -> list:
    """All records of a well-formed file; raises on the first bad row."""
    records = []
    for _, item in scan_cubic_csv(path):
        if isinstance(item, MalformedRecord):
            raise item
        records.append(item)
    return records


# -- per-field report --------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFieldReport:
    ramification: RamificationData
    class_data: ClassData
    unit: FundamentalUnit | None
    checks: dict


def field_report(d: int) -> QuadraticFieldReport:
    """Everything the sweep records about one field."""
    checks = {
        "upper_nf": check_upper_nf(d),
        "lower_nf": check_lower_nf(d),
        "gauss_identity": gauss_identity(d) if d > 1 else None,
        "cor_lower": check_cor_lower_nf(d),
    }
    return QuadraticFieldReport(
        ramification=ramification(d),
        class_data=_class_data(d),
        unit=fundamental_unit(d) if d > 1 else None,
        checks=checks,
    )


def report_to_dict(report: QuadraticFieldReport) -> dict:
    """JSON-ready form of a field report."""
    def check_dict(c):
        if c is None:
            return None
        return {"lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}

    data = report.class_data
    return {
        "d": data.d,
        "discriminant": data.discriminant,
        "s0": report.ramification.s0,
        "s_inf": report.ramification.s_inf,
        "s": report.ramification.s,
        "class_invariants": list(data.invariants),
        "class_number": data.class_number,
        "narrow_invariants": list(data.narrow_invariants) if data.narrow_invariants is not None else None,
        "dim_h0_cl": data.dim_h0_cl,
        "dim_h1_cl": data.dim_h1_cl,
        "unit_norm": report.unit.norm if report.unit else None,
        "unit_h1_dim": data.unit_h1_dim,
        "checks": {k: check_dict(v) for k, v in report.checks.items()},
    }
