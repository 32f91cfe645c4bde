"""Quadratic fields as C_2-module data, plus cyclic-cubic record checks.

Class groups are computed through binary quadratic forms of the field
discriminant: reduced positive-definite forms under Gauss composition for
d < 0, and cycles of reduced indefinite forms (narrow classes) for d > 0.
The group is generated by the prime forms (p, b_p, *) with (D/p) != -1 and
p <= sqrt(|D|/3) for d < 0, p <= isqrt(D)/2 for d > 0, the latter with
(-1, b0, *); no list of all reduced forms is made. b_p comes from
Tonelli-Shanks until p has been looked up p/32 times, and after that from
a table of square roots modulo p (p below 2^12), built once and shared by
the fields that follow. The structure comes from the square subgroup 2G
of the group G and G's 2-rank r. 2G is generated by the squares of G's
generators, and the ramified prime forms and (-1, b0, *) are their own
inverses, so one relation lattice on the classes of the squares of the
split prime forms, each squared with one modular inverse, gives 2G,
with h/2^r classes: k rows of k entries, whose invariant factors one
_eliminate of the rows reads off the diagonal, with no matrix built. The
lattice codes each class's coordinates as one int in
a base of width 2|D|, over twice the class number, and composes one class
of each inverse pair and takes the other as the class of (c, b, a): for
d < 0 in closed form, for d > 0 by a lookup, since one walk of a cycle,
on int keys a M + b, labels the inverse class's cycle too, and a cycle
that is its own mirror is walked halfway, between its two axes. r is
counted, not assumed, so genus theory stays a check: 2^r classes equal
their inverse, and they are counted from the <= 2 candidate forms per
signed divisor of D. G's invariant factors are 2G's with the last r
doubled. For d > 0 the wide class group is the narrow group modulo j,
the class of (-1, b0, *): j lies in 2G exactly when its cycle was
labelled, and then the wide square subgroup is 2G modulo j, a copy of the
rows with j's coordinates as one more column, with 2-rank r; otherwise it
is 2G, with 2-rank r - 1. The class module's cohomology is shared by
fields whose class groups have one 2-primary part. The unit's norm is
read off the record: it is -1 exactly when the narrow and wide class
numbers agree. Fundamental units themselves come from the continued
fraction of sqrt(d) through the Pell equation u^2 - d v^2 = +-4.
Everything is exact.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod

from .cpmod import (CpModule, Verdict, cor_lower, h0_and_fixed_points, is_prime, lower,
                    new_cp_module, tate_dim, upper)
from .intlinalg import IntMatrix, _invariants


class NotSquareFree(ValueError):
    pass


class NotReal(ValueError):
    """Operation needs a real quadratic field (d > 1)."""


class MalformedRecord(ValueError):
    """A cyclic-cubic input record fails validation."""


class AboveLimit(ValueError):
    """A field's |d| is above MAX_ABS_D; the message names d."""


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


@lru_cache(maxsize=64)
def _primes_below_power_of_two(bits: int) -> tuple:
    """All primes below 2^bits. Memoised by bit length, so the fields of a
    sweep share a few sieves, each at most twice as long as they need."""
    return tuple(primes_upto((1 << bits) - 1))


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


# The largest |d| a field may have; a field's memory grows with its class
# number. README gives what the limit allows.
MAX_ABS_D = 10**10


@lru_cache(maxsize=1024)
def _prime_divisors(d: int) -> tuple:
    """The primes dividing d, from the one factorization that checks d
    gives a quadratic field, with |d| at most MAX_ABS_D. Memoised, since a
    field's class group, ramification and unit each check d."""
    if d in (0, 1):
        raise NotSquareFree(f"d = {d} does not give a quadratic field")
    if abs(d) > MAX_ABS_D:
        raise AboveLimit(f"d = {d}: |d| is above the limit {MAX_ABS_D}")
    factors = factorize(d)
    if any(e > 1 for e in factors.values()):
        raise NotSquareFree(f"d = {d} is not square-free")
    return tuple(factors)


def quadratic_field(d: int) -> QuadraticField:
    _prime_divisors(d)
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
    """Ramified primes of Q(sqrt(d))/Q: divisors of the discriminant, those
    of d and 2 when D = 4d, plus the archimedean place exactly when the
    field is imaginary. Memoised, since every check of a field reads it."""
    primes = set(_prime_divisors(d))
    if quadratic_field(d).discriminant % 2 == 0:
        primes.add(2)
    finite = tuple(sorted(primes))
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
    """Dirichlet composition of primitive forms of either sign of D, before
    reduction. When gcd(a1, a2) = 1, b3 = b1 (mod 2a1) and b3 = b2 (mod 2a2)
    fix b3 modulo 2 a1 a2, and b2 + 2 a2 k with k = (b1 - b2)/2 / a2
    (mod |a1|) is that solution; otherwise the general formula runs."""
    a1, b1, _ = f1
    a2, b2, _ = f2
    d1 = gcd(a1, a2)
    if d1 == 1:
        a3 = a1 * a2
        m = abs(a1)
        b3 = (b2 + 2 * a2 * ((b1 - b2) // 2 * pow(a2, -1, m) % m)) % (2 * abs(a3))
        return (a3, b3, (b3 * b3 - D) // (4 * a3))
    # Bezout: u1 a1 + v1 a2 = d1 and u2 d1 + v2 s = d, from inverses of
    # the cofactors (pow(x, -1, 1) is 0); b3 is unique modulo 2 a3, so any
    # coefficients give the same form
    s = (b1 + b2) // 2
    u1 = pow(a1 // d1, -1, abs(a2) // d1)
    v1 = (d1 - u1 * a1) // a2
    d = gcd(d1, s)
    v2 = pow(s // d, -1, d1 // d)
    u2 = (d - v2 * s) // d1
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


def _definite_inverse(f):
    """The reduced form of the inverse class of the reduced definite form
    f = (a, b, c). The inverse class holds (a, -b, c), which is reduced
    unless b = 0, b = a or a = c; then (a, -b, c) is equivalent to f, by
    b -> b + 2a or by (a, b, c) -> (c, -b, a)."""
    a, b, c = f
    return (a, -b, c) if b and b != a and a != c else f


def _walk_cycle(f, D, sq, M):
    """Walk the cycle of the reduced indefinite form f, keying each form
    (a, b, c) as a M + b with M > sq; as 0 < b <= sq, keys order like the
    forms. Returns (keys, mirrors, ambiguous): the keys of the forms
    visited, those of their mirrors (c, b, a), and whether the cycle is
    its own mirror.

    On reduced forms rho(a, b, c) = (c, r, (r^2 - D)/4c) with
    r = sq - (sq + b) mod 2|c|, and rho^-1 = mirror rho mirror is
    ((r^2 - D)/4a, r, a) with r = sq - (sq + b) mod 2|a|. So mirroring
    reverses a cycle, onto the cycle of the inverse class, and fixes no
    form, since ac < 0. An ambiguous cycle, equal to its mirror, therefore
    has even length L and two axes: steps g -> rho(g) with rho(g) =
    mirror(g), that is r = b. The walk goes forward from f until it meets
    an axis or comes back to f. A cycle that closes without an axis is not
    ambiguous: keys is the cycle and mirrors the inverse class's cycle. On
    an ambiguous cycle the walk turns back at the axis and goes from f
    with rho^-1 to the other axis; the L/2 forms visited lie between the
    axes, and with their mirrors they make up the cycle. Each visited form
    costs one rho or rho^-1, and f one more on an ambiguous cycle."""
    a, b, c = f
    keys, mirrors = [], []
    k0 = k = a * M + b
    while True:
        keys.append(k)
        mirrors.append(c * M + b)
        r = sq - (sq + b) % (2 * abs(c))
        if r == b:
            break
        a, b, c = c, r, (r * r - D) // (4 * c)
        k = a * M + b
        if k == k0:
            return keys, mirrors, False
    a, b, c = f
    while True:
        r = sq - (sq + b) % (2 * abs(a))
        if r == b:
            return keys, mirrors, True
        a, b, c = (r * r - D) // (4 * a), r, a
        keys.append(a * M + b)
        mirrors.append(c * M + b)


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


# Tables of square roots modulo p are kept for the odd primes below this
# cap: 2.3 MB for all of them, against 8.4 MB below 2^13. A cold sweep of
# the 728 fields with square-free |d| in [10^7 + 3000, 10^7 + 3600) spends
# 181 ms on prime forms with this cap, 242 ms with 2^11 and 450 ms with
# Tonelli-Shanks alone (medians of 8 runs on a 2-core x86_64 machine).
_SQRT_TABLE_CAP = 1 << 12


@lru_cache(maxsize=None)
def _sqrt_lookups(p: int) -> list:
    """[table, count] for the odd prime p: _sqrt_table(p) once it is built,
    None before, and how many square roots modulo p were looked up."""
    return [None, 0]


def _sqrt_table(p: int) -> array:
    """Square roots modulo the odd prime p: entry n is the root r in
    [1, (p - 1)/2] with r^2 = n (mod p) for a nonzero square n, and 0 for
    a non-residue (and for n = 0). Built by squaring 1, ..., (p - 1)/2,
    which costs about as much as p/32 Tonelli-Shanks roots."""
    table = array("H", bytes(2 * p))
    for r in range(1, (p + 1) // 2):
        table[r * r % p] = r
    return table


def _prime_forms(D: int, bound: int) -> list:
    """The prime forms (p, b_p, (b_p^2 - D)/4p) of discriminant D, one for
    each prime p <= bound with (D/p) != -1, with b_p = D (mod 2) and
    b_p^2 = D (mod 4p). An odd p prime to D takes a square root of D
    modulo p, moved to the parity of D: by Tonelli-Shanks for the first
    p/32 lookups of p, which cost about what p's table does, and from
    _sqrt_table(p), built once and kept in _sqrt_lookups(p), after them.
    So a single field builds no table for p >= 32, and a sweep spends on
    a table at most what Tonelli-Shanks spent on p before it (p at or
    above _SQRT_TABLE_CAP always takes Tonelli-Shanks). An odd p dividing
    D takes p (D mod 2). At 2: b_2 = 1 when D = 1 (mod 8), none when
    D = 5 (mod 8), and for D = 4d' b_2 = 2 (d' mod 2)."""
    forms = []
    primes = _primes_below_power_of_two(bound.bit_length())
    for p in primes[:bisect_right(primes, bound)]:
        if p == 2:
            if D % 8 == 5:
                continue
            b = 1 if D % 2 else 2 * (D // 4 % 2)
        elif D % p == 0:
            b = p * (D & 1)
        else:
            table = None
            if p < _SQRT_TABLE_CAP:
                memo = _sqrt_lookups(p)
                table = memo[0]
                if table is None:
                    memo[1] += 1
                    if memo[1] > p >> 5:
                        table = memo[0] = _sqrt_table(p)
            b = _sqrt_mod_prime(D, p) if table is None else table[D % p]
            if not b:
                continue
            if (b - D) % 2:
                b = p - b
        forms.append((p, b, (b * b - D) // (4 * p)))
    return forms


# -- generic structure of a finite abelian group given by a black box -------


def _relation_lattice(elements, op, inv, identity, width):
    """Coordinates of every element on greedily chosen generators, and the
    k rows of a matrix whose columns are the generators' relations; the
    group is its cokernel.

    The next generator g is the first element outside the span so far. For
    i = 1, 2, ... the coset g^i span is filled by composition, with
    coordinates c + (i,), and the coset g^-i span by inv, with (-c) + (-i,),
    until the power g^i is already in coords with last coordinate e. Only
    the cosets for 0 and +-j, j < i, are in coords then, and g^i in g^j span
    with 0 < j < i would have put g^(i-j) in the span, an earlier hit; so e
    is in {0, -1, ..., -(i-1)} and g^(i-e) lies in the span: i - e is a
    positive multiple of g's order n over the span. The power g^n reaches
    the span at the latest, so i <= n and i - e <= 2i - 1 < 2n: the first
    hit gives i - e = n exactly, and the relation n e_g - coords(g^n).
    Coordinates may be negative. The relations lie in Ker of the
    coordinate map and are triangular with diagonal n_j, whose product is
    the group's order, so they generate Ker. Each inverse pair
    costs one composition, and none composes with the identity.

    Coordinates (c_0, ..., c_(k-1)) are stored as one int, the code
    c_0 + c_1 W + ... + c_(k-1) W^(k-1) with W = width, so a coset adds
    i W^k and the inverse coset negates; _decode reads the digits back,
    here only those of each hit g^i. Every |c_j| < n_j, so the code is
    exact when width >= 2 max n_j; the caller passes a width it can prove
    that of (_class_data: 2|D| for a class group).
    """
    coords = {identity: 0}
    relations = []
    unit = 1
    for g in elements:
        if g in coords:
            continue
        span = list(coords.items())
        power, i = g, 1
        while power not in coords:
            t = i * unit
            for x, c in span:
                y = power if x == identity else op(power, x)
                coords[y] = c + t
                coords[inv(y)] = -c - t
            power, i = op(power, g), i + 1
        *c, e = _decode(coords[power], width, len(relations) + 1)
        relations.append([-t for t in c] + [i - e])
        unit *= width
    return coords, [[r[j] if j < len(r) else 0 for r in relations] for j in range(len(relations))]


def _decode(code, width, k):
    """The k digits of a _relation_lattice code in base width, each in the
    balanced range -width/2 < c_j < width/2."""
    digits = []
    for _ in range(k):
        r = code % width
        if 2 * r > width:
            r -= width
        digits.append(r)
        code = (code - r) // width
    return digits


# -- class groups -----------------------------------------------------------


def _square_form(f, D):
    """The square of the prime form f = (p, b, c) with p prime to D, as
    (p^2, b + 2 p k, *) with k = -c b^-1 (mod p): that b' = b (mod 2p)
    is the one class of b' modulo 2p^2 with b'^2 = D (mod 4p^2), since
    b'^2 - D = 4p(c + k b) + 4p^2 k^2, and b is prime to p."""
    p, b, c = f
    b += 2 * p * (-c * pow(b, -1, p) % p)
    a = p * p
    return (a, b, (b * b - D) // (4 * a))


def _divisors(n: int, primes) -> list:
    """The positive divisors of n, whose prime factors are primes."""
    out = [1]
    for p in primes:
        k = len(out)
        while n % p == 0:
            n //= p
            out += [x * p for x in out[-k:]]
    return out


def _two_rank(D: int, primes) -> int:
    """r with 2^r = |Cl[2]| for D < 0 and |Cl+[2]| for D > 0, the classes
    equal to their inverse, counted from the <= 2 candidates per signed
    divisor of D; primes are D's prime factors.

    D < 0: the class of a reduced (a, b, c) is its own inverse exactly
    when (a, -b, c) is not reduced (see _definite_inverse): b = 0, b = a
    or a = c. For each a | D the forms (a, b, c) with b in {0, a} are
    those reduced ones when a <= c; when c < a < 2c, (a, a, c) ~
    (c, -a, a) ~ (c, 2c - a, c) is reduced, and each reduced (e, b, e)
    with 0 < b < e arises so once, from a = 2e - b.
    D > 0: the class is its own inverse exactly when its cycle is its own
    mirror (see _walk_cycle), and such a cycle has exactly two axes, the
    reduced forms with rho(a, b, c) = (c, b, a), that is |c| divides b. So
    c | D, and b is one of the two multiples of |c| in the window
    isqrt(D) - 2|c| < b <= isqrt(D) that reduced forms keep.

    Raises ArithmeticError when the count is not a power of two."""
    count = 0
    if D < 0:
        for a in _divisors(-D, primes):
            for b in (0, a):
                if (b - D) % 2 == 0 and (b * b - D) % (4 * a) == 0:
                    c = (b * b - D) // (4 * a)
                    count += a <= c or (b == a and a < 2 * c)
    else:
        sq = isqrt(D)
        for m in _divisors(D, primes):
            top = sq - sq % m
            for c in (m, -m):
                for b in (top, top - m):
                    count += (b > 0 and (b - D) % 2 == 0 and (b * b - D) % (4 * c) == 0
                              and _is_reduced_indefinite(((b * b - D) // (4 * c), b, c), D))
        count //= 2
    r = count.bit_length() - 1
    if count != 1 << r:
        raise ArithmeticError(f"D = {D}: {count} classes of order <= 2, not a power of two")
    return r


def _lift_invariants(halved: tuple, r: int) -> tuple:
    """The invariant factors of a finite abelian group A from those of 2A
    and A's 2-rank r. The even factors of A are its last r, and 2A halves
    exactly those; a factor 2 halves to 1 and drops out, which happens
    only when every factor is even, since an odd factor >= 3 divides the
    next. So 2A's chain, padded with leading 1s to length >= r, gives A
    by doubling its last r entries."""
    chain = [1] * (r - len(halved)) + list(halved)
    k = len(chain) - r
    return tuple(chain[:k] + [2 * n for n in chain[k:]])


@dataclass(frozen=True)
class ClassData:
    d: int
    discriminant: int
    invariants: tuple          # ordinary (wide) class group
    class_number: int
    narrow_invariants: tuple | None   # d > 0 only
    dim_h0_cl: int             # dim H^0(C_2, Cl)
    dim_h1_cl: int             # dim H^1(C_2, Cl)
    fixed_invariants: tuple    # Cl^(C_2), the fixed classes
    unit_h1_dim: int           # dim H^1(C_2, units/torsion)

    @property
    def unit_norm(self) -> int | None:
        """The fundamental unit's norm for d > 0, None for d < 0. The wide
        group is the narrow one modulo the class of (-1, b0, *), which is
        trivial exactly when some unit has norm -1; so the norm is -1
        exactly when h+ = h (Jacobson and Williams, Solving the Pell
        Equation, 2009)."""
        if self.narrow_invariants is None:
            return None
        return -1 if prod(self.narrow_invariants) == self.class_number else 1


@lru_cache(maxsize=1024)
def _class_cohomology(inv: tuple) -> tuple:
    """(dim H^0, dim H^1, fixed invariant factors) of the class module
    with invariant factors inv. Inversion is -1 on every presentation,
    so inv fixes the module up to isomorphism. Under -1, H^0 = A[2],
    H^1 = A/2A and the fixed points are A[2]; all three vanish on a
    group of odd order, so _class_record passes the 2-primary
    invariants, and fields whose class groups share their 2-part share
    the entry."""
    cl = _class_module(inv)
    dim_h0, fixed = h0_and_fixed_points(cl)
    return dim_h0, tate_dim(cl, 1), fixed.invariant_factors


@lru_cache(maxsize=2)
def _unit_h1_dim(real: bool) -> int:
    """dim H^1(C_2, units/torsion). The unit module depends only on the
    sign of d, so Q(sqrt(2)) and Q(sqrt(-1)) stand for every field."""
    return tate_dim(unit_module(2 if real else -1), 1)


def _class_record(d, D, inv, h, narrow_inv) -> ClassData:
    """The field's record; its cohomology is looked up by the isomorphism
    type of Cl's 2-primary part, the factors 2^v_2(n) of its even n."""
    two = tuple(n & -n for n in inv if n % 2 == 0)
    return ClassData(d, D, inv, h, narrow_inv, *_class_cohomology(two), _unit_h1_dim(d > 0))


@lru_cache(maxsize=1024)
def _class_data(d: int) -> ClassData:
    """The field's record. The class group (d < 0) or the narrow class
    group (d > 0), G, comes from its square subgroup 2G and its 2-rank r,
    and 2G is the cokernel of one relation lattice on the classes of the
    squares of the split prime forms, which generate it:

    d < 0: every class has a reduced form with a <= sqrt(|D|/3), and that
    form is a product of the prime forms (p, +-b_p, *) with p | a.
    d > 0: every cycle of reduced forms has one with |a| < sqrt(D)/2, since
    |ac| < D/4 and c is the first coefficient of the next form; and for
    a < 0, (a, b, c) = (-1, b0, *)(-a, b, -c). So the prime forms with
    p <= isqrt(D)/2 and (-1, b0, *) generate the narrow group.

    2G is generated by the squares of G's generators, and those of order
    <= 2 drop out: a ramified prime form (p | b_p) and (-1, b0, *) are
    each equivalent to their inverse (a, -b, c). _square_form squares a
    split prime form with one modular inverse. The lattice enumerates
    only 2G, h/2^r classes, and for d > 0 walks only 2G's cycles.

    r is counted, not assumed: _two_rank counts the classes of order
    <= 2, 2^r = |G[2]| = |G/2G| of them, from the divisors of D, so genus
    theory stays a check on the record. _lift_invariants gives G back
    from 2G and r.

    cls_of names a form's class: its reduced form for d < 0, and for d > 0
    the least form on its cycle. The inverse of a class is the class of
    (c, b, a), equivalent to (a, -b, c): for d < 0 _definite_inverse gives
    its reduced form at once. For d > 0 one _walk_cycle labels a cycle and
    its mirror, the cycle of the inverse class, so a class and its inverse
    cost one walk and the inverse is the label of (c, b, a)'s key; a cycle
    that is its own mirror is walked from one axis to the other, half of it.

    The forms above bound the group's order, and so each n_j of the
    lattice, by |D|: for d < 0 the pairs |b| <= a <= A = isqrt(|D|/3),
    b = D (mod 2), number at most A(A + 3)/2 <= 2A^2 < |D|; for d > 0 the
    pairs 0 < |a| < sqrt(D)/2, 0 < b < sqrt(D), b = D (mod 2), number at
    most sqrt(D)(sqrt(D) + 1)/2 < D. Hence the lattice width 2|D|.

    The wide group is the narrow group G modulo j, the class of
    (-1, b0, *), and 2(G/<j>) = (2G + <j>)/<j>. Only 2G's cycles are
    labelled, so j lies in 2G exactly when its reduced form's key is
    labelled, with no walk. Then the wide square subgroup is 2G modulo j,
    j's coordinates as one more column on a copy of the rows, as
    _invariants consumes them, and the wide 2-rank is r, since
    G/(2G + <j>) = G/2G. Otherwise the wide square subgroup is 2G itself,
    and j != 1 takes one 2 off r. The groups are finite, and only their
    invariant factors are read."""
    D = quadratic_field(d).discriminant
    width = 2 * abs(D)
    if d < 0:
        gens = _prime_forms(D, isqrt(-D // 3))

        def cls_of(form):
            return _definite_reduce(form, D)

        inv = _definite_inverse
    else:
        sq = isqrt(D)
        M = sq + 1
        b0 = D & 1
        gens = _prime_forms(D, sq // 2)
        cycle_of = {}

        def label(keys):
            a, b = divmod(min(keys), M)
            cycle_of.update(dict.fromkeys(keys, (a, b, (b * b - D) // (4 * a))))

        def cls_of(form):
            f = _indefinite_reduce(form, D, sq)
            key = f[0] * M + f[1]
            if key not in cycle_of:
                keys, mirrors, ambiguous = _walk_cycle(f, D, sq, M)
                if ambiguous:
                    label(keys + mirrors)
                else:
                    label(keys)
                    label(mirrors)
            return cycle_of[key]

        def inv(x):
            return cycle_of[x[2] * M + x[1]]

    def op(x, y):
        return cls_of(_compose_raw(x, y, D))

    ident = cls_of(_principal_form(D))
    squares = [cls_of(_square_form(f, D)) for f in gens if D % f[0]]
    coords, rows = _relation_lattice(squares, op, inv, ident, width)
    r = _two_rank(D, ramification(d).finite_ramified)
    if d < 0:
        halved, _ = _invariants(rows, len(rows))
        narrow = _lift_invariants(halved, r)
        return _class_record(d, D, narrow, prod(narrow), None)
    j = _indefinite_reduce((-1, b0, (D - b0 * b0) // 4), D, sq)
    j_key = j[0] * M + j[1]
    j_is_square = j_key in cycle_of
    if j_is_square:
        column = _decode(coords[cycle_of[j_key]], width, len(rows))
        wide_halved, _ = _invariants([row + [c] for row, c in zip(rows, column)],
                                     len(rows) + 1)
    halved, _ = _invariants(rows, len(rows))
    if not j_is_square:
        wide_halved = halved
    narrow = _lift_invariants(halved, r)
    wide = _lift_invariants(wide_halved, r if j_is_square else r - 1)
    return _class_record(d, D, wide, prod(wide), narrow)


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


def gauss_identity(ram: RamificationData, data: ClassData) -> Verdict:
    """s - dim Cl^(C_2) against the unit-norm prediction (1 for norm -1,
    2 for norm +1), read off a real field's records.

    Caution: the prediction has genuine counterexamples (d = 34 is the
    smallest), where -1 is a rational norm from the field but not the
    norm of a unit; the returned verdict records them honestly.
    """
    if data.unit_norm is None:
        raise NotReal(f"gauss identity needs d > 1, got {data.d}")
    value = ram.s - data.dim_h0_cl
    expected = 1 if data.unit_norm == -1 else 2
    return Verdict("gauss_identity", value, expected, True, value == expected)


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
    """How the primes q <= prime_bound decompose in Q(sqrt(d)); a bound
    below 2 has no primes, so no fraction, and is refused."""
    if prime_bound < 2:
        raise ValueError(f"prime_bound must be >= 2, got {prime_bound}")
    quadratic_field(d)
    counts = {SPLIT: 0, INERT: 0, RAMIFIED: 0}
    ps = primes_upto(prime_bound)
    for q in ps:
        counts[classify_prime(d, q)] += 1
    return SplittingDensity(d=d, prime_bound=prime_bound,
                            split=counts[SPLIT], inert=counts[INERT],
                            ramified=counts[RAMIFIED], total=len(ps))


# -- cyclic cubic records ----------------------------------------------------


MAX_CONDUCTOR = 10**12   # trial division of a prime near it takes 0.03 s


@dataclass(frozen=True)
class CubicRecord:
    """Conductor and class-group invariant factors of a cyclic cubic field,
    checked when built: the conductor is at most MAX_CONDUCTOR and
    admissible, a product of distinct primes = 1 mod 3 with at most one
    factor of 9, and the invariants are ints >= 2 making a divisibility
    chain. s, the number of primes dividing the conductor, is derived."""

    conductor: int
    invariants: tuple
    s: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        f = self.conductor
        if not 2 <= f <= MAX_CONDUCTOR:
            raise MalformedRecord(f"conductor {f} out of range [2, {MAX_CONDUCTOR}]")
        factors = factorize(f)
        for p, e in factors.items():
            if p == 3 and e != 2:
                raise MalformedRecord(
                    f"conductor {f}: 3 appears with exponent {e}, only 9 is admissible")
            if p != 3 and e != 1:
                raise MalformedRecord(f"conductor {f}: repeated prime {p}")
            if p % 3 == 2:
                raise MalformedRecord(f"conductor {f}: prime {p} is not 1 mod 3")
        for v in self.invariants:
            if not isinstance(v, int) or v < 2:
                raise MalformedRecord(f"invariant factor {v!r} out of range")
        for x, y in zip(self.invariants, self.invariants[1:]):
            if y % x:
                raise MalformedRecord(f"invariants {self.invariants} are not a divisibility chain")
        object.__setattr__(self, "s", len(factors))


def cubic_rank_check(record: CubicRecord) -> Verdict:
    """3-rank(Cl) >= s - 1 where s counts primes dividing the conductor;
    the 3-rank counts the record's invariant factors divisible by 3."""
    rank3 = sum(1 for v in record.invariants if v % 3 == 0)
    return Verdict("cubic_rank", rank3, record.s - 1, True, rank3 >= record.s - 1)


def _parse_cubic_row(row: list) -> CubicRecord:
    """One CSV row that is not blank to a record."""
    if len(row) != 2:
        raise MalformedRecord(f"expected 2 fields, got {len(row)}")
    try:
        conductor = int(row[0].strip())
    except ValueError:
        raise MalformedRecord(f"conductor {row[0]!r} is not an integer")
    text = row[1].strip()
    try:
        invariants = tuple(int(t) for t in text.split(";")) if text else ()
    except ValueError:
        raise MalformedRecord(f"invariants {row[1]!r} unparseable")
    return CubicRecord(conductor=conductor, invariants=invariants)


def scan_cubic_csv(path):
    """Yield (lineno, CubicRecord | MalformedRecord) per row that is not
    blank, so a caller can keep going past bad rows, one the csv reader
    rejects (a field over its length limit) included. A bad header raises.

    Format: header 'conductor,class_invariants'; invariants are a
    ;-separated ascending divisibility chain, empty for a trivial group.
    """
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["conductor", "class_invariants"]:
            raise MalformedRecord(f"bad header {header!r}, want conductor,class_invariants")
        for lineno in count(2):
            try:
                row = next(reader, None)
                if row is None:
                    return
                if any(cell.strip() for cell in row):
                    yield lineno, _parse_cubic_row(row)
            except (csv.Error, MalformedRecord) as err:
                yield lineno, MalformedRecord(str(err))


# -- per-field report --------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFieldReport:
    ramification: RamificationData
    class_data: ClassData
    checks: dict


def field_report(d: int) -> QuadraticFieldReport:
    """Everything the sweep records about one field: its two records and
    the verdicts read off them. upper_nf counts the finite ramified primes
    s0, lower_nf and cor_lower all ramified places s; gauss_identity is
    None for d < 0."""
    ram, data = ramification(d), _class_data(d)
    checks = {
        "upper_nf": upper("upper_nf", ram.s0, data.dim_h0_cl, data.unit_h1_dim),
        "lower_nf": lower("lower_nf", ram.s, data.dim_h0_cl),
        "gauss_identity": gauss_identity(ram, data) if d > 1 else None,
        "cor_lower": cor_lower(2, ram.s, data.fixed_invariants),
    }
    return QuadraticFieldReport(ramification=ram, class_data=data, checks=checks)


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
        "unit_norm": data.unit_norm,
        "unit_h1_dim": data.unit_h1_dim,
        "checks": {k: check_dict(v) for k, v in report.checks.items()},
    }
