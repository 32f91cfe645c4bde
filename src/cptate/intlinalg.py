"""Exact integer linear algebra over Z.

Smith normal form with its unimodular row transform, cokernel
presentations of finitely generated abelian groups, and the relations
of the Ker/Im subquotients of the cohomology layer. Membership,
coordinates and quotients of a lattice are all read off its one Smith
form, which a group keeps from its cokernel.

Everything uses plain Python ints, so there is no overflow anywhere.
All public values are immutable.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import add, mul, neg, sub

# IntMatrix.__matmul__ packs rows into 64-bit digits of one int when its
# result and its right factor stay below this bound in magnitude
_DIGIT_BOUND = 1 << 62
# Dot products serve results with at most this many entries outside the
# left factor's zero rows: packing converts each row of either factor.
# On the products of a manifolds pass, the cutover was between 25 entries
# (5x5 results, and every m x m x 1 up to m = 17) and 36 (6x6)
_DOT_ENTRIES = 25
_ORDER = sys.byteorder  # array's byte order
_TOP_BIT = array("Q", [1 << 63]).tobytes()


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class CompositeNotZero(ValueError):
    """im_of does not land inside ker_of on the presented group."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major.

    The public constructors check the shape and that every entry is an
    int. What this module builds from checked matrices (sums, products,
    Smith transforms) goes through _of, which skips those checks.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"matrix entries must be ints, got {type(e).__name__}")

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, rows, cols, entries):
        """Trusted constructor: entries must already be a tuple of
        rows * cols ints, so __post_init__'s checks are skipped."""
        m = object.__new__(cls)
        fields = m.__dict__
        fields["rows"] = rows
        fields["cols"] = cols
        fields["entries"] = entries
        return m

    @classmethod
    def from_rows(cls, rows, *, cols=None):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != ncols:
                raise DimensionMismatch("cols does not match row length")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs explicit cols")
            ncols = cols
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_columns(cls, columns, rows):
        columns = [tuple(c) for c in columns]
        for c in columns:
            if len(c) != rows:
                raise DimensionMismatch("column of wrong length")
        flat = tuple(columns[j][i] for i in range(rows) for j in range(len(columns)))
        return cls(rows, len(columns), flat)

    @classmethod
    def identity(cls, n):
        if n < 0:
            raise DimensionMismatch("negative dimensions")
        return cls._of(n, n, _identity_entries(n))

    @classmethod
    def zeros(cls, rows, cols):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimensions")
        return cls._of(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        diag = list(diag)
        r = len(diag) if rows is None else rows
        c = len(diag) if cols is None else cols
        if len(diag) > min(r, c):
            raise DimensionMismatch("too many diagonal entries")
        return cls(r, c, tuple(
            diag[i] if i == j and i < len(diag) else 0
            for i in range(r) for j in range(c)
        ))

    @classmethod
    def block_diag(cls, blocks):
        blocks = list(blocks)
        c, j = sum(b.cols for b in blocks), 0
        out = []
        for b in blocks:
            out += ([0] * j + list(b.row(i)) + [0] * (c - j - b.cols) for i in range(b.rows))
            j += b.cols
        return cls.from_rows(out, cols=c)

    # -- access -------------------------------------------------------

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other):
        """Exact product. Each row of other is packed into one int with a
        64-bit digit per entry (Kronecker substitution), so row i of the
        result is one multiply-accumulate of row i of self against the
        packed rows, and its digits are read back through an array. The
        digits are exact while max|b| < 2^62 and n max|a| max|b| < 2^62,
        which keep every packed and every result entry below 2^63; a
        product outside that bound, or with at most _DOT_ENTRIES entries
        outside the zero rows of self, takes one dot product per such
        entry. A zero factor gives the zero result and a square identity
        factor the other factor, found by scans in C before any arithmetic."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        m, n, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        if not any(a) or not any(b):
            return IntMatrix._of(m, p, (0,) * (m * p))
        if m == n and a == _identity_entries(n):
            return other
        if n == p and b == _identity_entries(n):
            return self
        rows = [a[i * n:(i + 1) * n] for i in range(m)]
        small = sum(map(any, rows)) * p <= _DOT_ENTRIES
        b_max = 0 if small or not b else max(max(b), -min(b))
        if small or b_max >= _DIGIT_BOUND or a and n * max(max(a), -min(a)) * b_max >= _DIGIT_BOUND:
            cols, zero = [b[j::p] for j in range(p)], (0,) * p
            return IntMatrix._of(m, p, tuple(chain.from_iterable(
                [sum(map(mul, r, c)) for c in cols] if any(r) else zero for r in rows)))
        # adding the bias puts every digit in [0, 2^64), so no digit
        # carries; xor with it maps between that and two's complement
        width = 8 * p
        bias = int.from_bytes(_TOP_BIT * p, _ORDER)
        packed_b = array("q", b).tobytes()
        packed = [(int.from_bytes(packed_b[k * width:(k + 1) * width], _ORDER) ^ bias) - bias
                  for k in range(n)]
        return IntMatrix._of(m, p, tuple(array("q", b"".join([
            ((sum(map(mul, r, packed)) + bias) ^ bias).to_bytes(width, _ORDER) for r in rows]))))

    def _entrywise(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix._of(self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._entrywise(other, add)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._entrywise(other, sub)

    def __neg__(self):
        return IntMatrix._of(self.rows, self.cols, tuple(map(neg, self.entries)))

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix._of(self.rows, self.cols, tuple(map(mul, repeat(scalar), self.entries)))

    __rmul__ = __mul__

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return IntMatrix._of(self.rows, self.cols + other.cols, tuple(out))

    def __repr__(self):
        if self.rows * self.cols <= 16:
            return f"IntMatrix({self.to_rows()!r})"
        return f"IntMatrix({self.rows}x{self.cols})"


@lru_cache(maxsize=64)
def _identity_entries(n):
    """Row-major entries of the n x n identity."""
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ source == diag(d1, d2, ...) @ w with d1 | d2 | ... >= 0.

    u and w are unimodular, and w, the inverse of the column operations,
    is not kept; diagonal holds the min(rows, cols) entries d_i. Only
    d_i, i < rank, are nonzero, so source's columns span the lattice with
    basis d_i * u^-1 e_i: b lies in it iff (u b)_i is divisible by d_i for
    i < rank and 0 beyond. u_inv is u^-1, formed alongside u, so
    u @ u_inv == 1.
    """

    u: IntMatrix
    u_inv: IntMatrix
    diagonal: tuple
    rank: int
    source: IntMatrix


def _find_pivot(s, t, m, n, floor):
    """(i, j) of the smallest nonzero |entry| of the block [t:, t:n],
    first in row-major order, or None for a zero block. Every entry of the
    block is a multiple of floor, so the first one of that size ends the
    scan: no later entry can be smaller."""
    best = None
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            x = row[j]
            if x != 0:
                if best is None or abs(x) < best[0]:
                    best = (abs(x), i, j)
                    if best[0] == floor:
                        return i, j
    return None if best is None else (best[1], best[2])


def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _eliminate(s, n, w=None, z=None) -> int:
    """Bring the first n columns of the rows s to Smith normal form in
    place, by elimination with minimal-|pivot| selection; returns the rank.

    Each pivot alternates two phases until its row and column are clear
    (Cohen, Algorithm 2.4.14): row operations reduce column t below the
    pivot, then column operations reduce row t, and each phase swaps its
    least nonzero remainder into the pivot. Once column t is clear it is
    s[t][t] e_t, as earlier pivots cleared their rows, so
    col_k -= q col_t changes s only at [t][k]; it is mirrored as
    row_k -= q row_t on w = V^T when w is given, V the product of the
    column operations. Row operations act on whole rows, so the columns of
    s after the n-th ride along: columns x there come out as U x, U the
    product of the row operations. When z is given, each row operation on
    s is undone as a column operation on U^-1, kept as the rows of
    z = (U^-1)^T. The pivots depend on the first n columns alone, so what
    rides along changes neither them nor the diagonal. At the end the
    block is diagonal, nonnegative, with each entry dividing the next.

    A finished pivot divides every entry of the block after it, and row
    and column operations keep that, so it is a floor for the pivots that
    follow: _find_pivot stops at the first entry of its size, and a pivot
    equal to it needs no divisibility scan. The floor starts at 1, which
    every entry is a multiple of; it changes no pivot and no operation.
    """
    m, floor = len(s), 1
    for t in range(min(m, n)):
        piv = _find_pivot(s, t, m, n, floor)
        if piv is None:
            return t
        i, j = piv
        if s[i][j] < 0:
            s[i] = [-x for x in s[i]]
            if z:
                z[i] = [-x for x in z[i]]
        while True:
            # bring row i and column j to the pivot; rows above t are zero
            # in both columns, and every remainder of a positive pivot is
            # positive
            s[t], s[i] = s[i], s[t]
            if z:
                z[t], z[i] = z[i], z[t]
            if j != t:
                for r in s[t:]:
                    r[t], r[j] = r[j], r[t]
                if w:
                    w[t], w[j] = w[j], w[t]
            row, d = s[t], s[t][t]
            i = j = t
            for k in range(t + 1, m):
                q = s[k][t] // d
                if q:
                    s[k] = [x - q * y for x, y in zip(s[k], row)]
                    if z:
                        z[t] = [x + q * y for x, y in zip(z[t], z[k])]
                if s[k][t] and (i == t or s[k][t] < s[i][t]):
                    i = k
            if i != t:
                continue
            for k in range(t + 1, n):
                q = row[k] // d
                if q:
                    row[k] -= q * d
                    if w:
                        w[k] = [x - q * y for x, y in zip(w[k], w[t])]
                if row[k] and (j == t or row[k] < row[j]):
                    j = k
            if j != t:
                continue
            # row and column clear; the pivot must divide the rest of the
            # block, which a pivot equal to the floor does. Folding a row it
            # does not divide into row t shrinks it to a gcd on the next pass.
            if d == floor:
                break
            rest = d.__rmod__
            bad = next((k for k in range(t + 1, m) if any(map(rest, s[k][t + 1:n]))), None)
            if bad is None:
                break
            s[t] = [x + y for x, y in zip(row, s[bad])]
            if z:
                z[bad] = [x - y for x, y in zip(z[bad], z[t])]
        floor = d
    return min(m, n)


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with its row transform, by _eliminate.

    u rides along as m more columns of s, so one list operation updates
    both, and u_inv is formed with it as the rows of its transpose, so
    u @ u_inv == 1. Readers of a Ker basis or of the diagonal alone run
    _eliminate on row lists instead (_kernel_rows, _invariants), so no
    form is built for them.
    """
    m, n = a.rows, a.cols
    s = [r + e for r, e in zip(a.to_rows(), _identity_rows(m))]
    z = _identity_rows(m)
    rank = _eliminate(s, n, z=z)
    return SmithDecomposition(
        u=IntMatrix._of(m, m, tuple(chain.from_iterable(r[n:] for r in s))),
        u_inv=IntMatrix._of(m, m, tuple(chain.from_iterable(zip(*z)))),
        diagonal=tuple(s[i][i] for i in range(min(m, n))),
        rank=rank,
        source=a,
    )


def _kernel_rows(s, n) -> list:
    """Basis of Ker of the rows s on their first n columns, as
    rows: the last n - rank rows of w = V^T (see _eliminate). s is
    eliminated in place."""
    w = _identity_rows(n)
    return w[_eliminate(s, n, w):]


def _reduced_rows(a: IntMatrix, moduli) -> IntMatrix:
    """a with row i < len(moduli) reduced into [0, moduli[i]), the rows
    beyond kept: by a Smith form's d_i, u @ x is 0 iff x is in its lattice."""
    n, e = a.cols, a.entries
    return IntMatrix._of(a.rows, n, tuple(chain.from_iterable(
        [x % d for x in e[i * n:(i + 1) * n]] for i, d in enumerate(moduli))) + e[len(moduli) * n:])


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group Z^ambient_rank / (column lattice).

    invariant_factors and free_rank are the normalized isomorphism
    invariants (unit factors dropped, each factor dividing the next);
    equality compares those, not the presentation. smith is the relations'
    Smith form they were read off, with u and u^-1, kept so no reader
    takes a second one.
    """

    invariant_factors: tuple
    free_rank: int
    smith: SmithDecomposition = field(compare=False, repr=False)

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors {self.invariant_factors} not a divisibility chain")
        if any(f < 2 for f in self.invariant_factors):
            raise ValueError("invariant factors must be > 1")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    @property
    def relations(self):
        return self.smith.source

    @property
    def ambient_rank(self):
        return self.smith.source.rows

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def p_rank(self, p):
        """Number of invariant factors divisible by p (the p-rank)."""
        return sum(1 for f in self.invariant_factors if f % p == 0)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


def cokernel(relations: IntMatrix) -> FgAbGroup:
    """The group Z^m / (lattice spanned by the columns of relations)."""
    return _cokernel_of(snf(relations))


def _cokernel_of(dec: SmithDecomposition) -> FgAbGroup:
    """The cokernel of dec.source, read off its Smith form."""
    return FgAbGroup(
        invariant_factors=tuple(d for d in dec.diagonal if d > 1),
        free_rank=dec.source.rows - dec.rank,
        smith=dec,
    )


def _diagonal_group(diagonal: tuple, rows: int) -> FgAbGroup:
    """Z^rows / (d_i e_i), d_i = diagonal[i] > 0 each dividing the next:
    relations that are their own Smith form, with u = 1, taking no snf."""
    r, one, entries = len(diagonal), IntMatrix.identity(rows), [0] * (rows * len(diagonal))
    entries[:r * r:r + 1] = diagonal
    source = IntMatrix._of(rows, r, tuple(entries))
    return _cokernel_of(SmithDecomposition(one, one, diagonal, r, source))


def from_invariants(factors, free_rank=0) -> FgAbGroup:
    """Group with the given invariant factors plus a free part, presented
    on len(factors) + free_rank generators with a diagonal relation block."""
    factors = [int(f) for f in factors]
    ambient = len(factors) + free_rank
    rel = IntMatrix.diagonal(factors, rows=ambient, cols=len(factors))
    return cokernel(rel)


def _subquotient_relations(group: FgAbGroup, ker_of: IntMatrix, im_ofs) -> list:
    """Relations presenting Ker(ker_of) / Im(im_of) inside group, one
    (rows, cols) pair per im_of in im_ofs, for operators that descend with
    ker_of @ im_of = 0 on group, as a valid module's S and N do. The
    numerator is the preimage lattice K = {x : ker_of x in L}, the Ker
    rows of [ker_of | relations] cut to their first m coordinates; it is
    brought to Smith form once, and serves every denominator. With
    u @ K_gens == diag(d) @ w, w unimodular, K has the basis d_i * u^-1 e_i
    (i < rank), so a denominator generator x (a column of im_of or of L)
    has the coordinates (u x)_i / d_i in it. Those generators ride through
    the elimination of K_gens as extra columns, so u x comes out of it and
    u is never formed; each result's rows hold the coordinates of the
    columns of [im_of | L], and its cokernel is K modulo the denominator.
    """
    m = group.ambient_rank
    rel = group.relations
    k = _kernel_rows([list(ker_of.row(i) + rel.row(i)) for i in range(m)], m + rel.cols)
    n = len(k)
    denoms = (*im_ofs, rel)
    s = [[v[i] for v in k] + list(chain(*(x.row(i) for x in denoms))) for i in range(m)]
    rank = _eliminate(s, n)
    y = [row[n:] for row in s]
    if any(map(any, y[rank:])) or any(any(map(s[i][i].__rmod__, y[i])) for i in range(rank)):
        # cannot happen for operators that descend with composite zero
        raise CompositeNotZero("denominator generator escapes the numerator lattice")
    coords = [[x // s[i][i] for x in y[i]] for i in range(rank)]
    out = []
    start, rel_start = 0, sum(x.cols for x in im_ofs)
    for im_of in im_ofs:
        stop = start + im_of.cols
        out.append(([c[start:stop] + c[rel_start:] for c in coords], im_of.cols + rel.cols))
        start = stop
    return out


def _cokernel_of_rows(rows, cols) -> FgAbGroup:
    """The cokernel of the matrix with these rows and cols columns."""
    return cokernel(IntMatrix._of(len(rows), cols, tuple(chain.from_iterable(rows))))


def _invariants(rows, cols) -> tuple:
    """(invariant factors, free rank) of the cokernel of the matrix with
    these rows and cols columns, as cokernel gives them, read off the
    diagonal of one _eliminate of the rows, which it consumes."""
    rank = _eliminate(rows, cols)
    return tuple(rows[i][i] for i in range(rank) if rows[i][i] > 1), len(rows) - rank
