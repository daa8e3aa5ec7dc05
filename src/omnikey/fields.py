"""Finite field arithmetic and the small linear algebra the protocols need.

Field elements are plain integer codes in [0, q).  For a prime field the
code is the residue itself; for GF(p^k) the base-p digits of the code are
the coefficients of the residue polynomial, digit i holding the x^i
coefficient.  Extension fields multiply through discrete log/antilog
tables built once at construction, so q is capped at 2**16, and an order
above the cap is refused before any primality test or table is built.

Matrices are plain equal-length rows, passed as `(field, rows, ...)`.
One Gauss-Jordan routine, `rref`, refuses ragged rows and returns the
reduced rows and their pivots; rank is the pivot count, span membership
a `residual` per vector, and basis completion one `rref` of the rows
with their columns reversed (its pivots are where span vectors end).
The protocols decode concrete values from a client's transmissions cut
to the coordinates it lacks, augmented with what its own values leave
unexplained: one `rref` decodes every message or derives every key.
Their algebraic checks reduce the transmissions once and work in the
quotient by their span (see `protocols`).

Every row elimination of `rref` and `residual` is one call of the row
kernel `Field.sub_mul_row(v, f, w)`, the row v - f*w: one comprehension
reduced mod p for a prime field, the element-wise `sub` and `mul` for a
prime power.  `rref` scales a pivot row element-wise, and only when its
lead is not already 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import InputFormatError, SizeGuardError

MAX_ORDER = 1 << 16

__all__ = [
    "Field",
    "make_field",
    "field_from_order",
    "rref",
    "rank",
    "in_rowspan",
    "complete_basis",
]


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    d = 3
    while d * d <= v:
        if v % d == 0:
            return False
        d += 2
    return True


def _prime_factors(v: int) -> list[int]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); a polynomial is a tuple of digits, index i
# holding the x^i coefficient, with no trailing zeros except for the zero
# polynomial ().
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    r = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(r) - 1 >= dm and r:
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - 1 - dm
        factor = (r[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            r[shift + i] = (r[shift + i] - factor * mi) % p
        r.pop()
    return _poly_trim(r)


def _poly_divides(d: Sequence[int], a: Sequence[int], p: int) -> bool:
    return not _poly_mod(a, d, p)


def _code_to_poly(code: int, p: int) -> tuple[int, ...]:
    digits = []
    while code:
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _poly_to_code(poly: Sequence[int], p: int) -> int:
    code = 0
    for d in reversed(poly):
        code = code * p + d
    return code


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    k = len(poly) - 1
    if k < 1 or poly[-1] == 0:
        return False
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for low in range(p**deg):
            cand = list(_code_to_poly(low, p))
            cand += [0] * (deg - len(cand)) + [1]
            if _poly_divides(cand, poly, p):
                return False
    return True


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, ordered by the integer code
    of the non-leading coefficients."""
    for low in range(p**k):
        cand = list(_code_to_poly(low, p))
        cand += [0] * (k - len(cand)) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class Field:
    """Arithmetic over GF(p^k) on integer element codes."""

    def __init__(self, p: int, k: int, modulus: Sequence[int] | None = None):
        if k < 1:
            raise InputFormatError("extension degree must be >= 1")
        # Size first: trial division of a huge p, or p**k for a huge k,
        # would hang on hostile input.  Every prime has p**17 > MAX_ORDER.
        if k >= MAX_ORDER.bit_length() or p**k > MAX_ORDER:
            raise SizeGuardError(f"field order {p}**{k} exceeds {MAX_ORDER}")
        if not _is_prime(p):
            raise InputFormatError(f"characteristic {p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        if modulus is None:
            modulus = _canonical_modulus(p, k) if k > 1 else (0, 1)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise InputFormatError("modulus must be monic of degree k")
            if k > 1 and not _is_irreducible(modulus, p):
                raise InputFormatError("modulus is not irreducible")
        self.modulus = modulus
        if k > 1:
            self._build_tables()

    # -- construction internals ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(_code_to_poly(a, self.p), _code_to_poly(b, self.p), self.p)
        return _poly_to_code(_poly_mod(prod, self.modulus, self.p), self.p)

    def _raw_pow(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self._raw_mul(r, b)
            b = self._raw_mul(b, b)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.q
        factors = _prime_factors(q - 1)
        gen = 0
        for cand in range(2, q):
            if all(self._raw_pow(cand, (q - 1) // f) != 1 for f in factors):
                gen = cand
                break
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, gen)
        self._exp = exp
        self._log = log

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        out, mult = 0, 1
        while a:
            out += (-a % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def sub_mul_row(self, v: Sequence[int], f: int, w: Sequence[int]) -> list[int]:
        """The row v - f*w of two equal-length rows and a scalar f."""
        if self.k == 1:
            p = self.p
            return [(a - f * b) % p for a, b in zip(v, w)]
        sub, mul = self.sub, self.mul
        return [sub(a, mul(f, b)) for a, b in zip(v, w)]

    def elements(self) -> range:
        return range(self.q)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k}, q={self.q})"

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        try:
            p, k, modulus = d["p"], d["k"], list(d["modulus"])
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"bad field description: {exc}") from exc
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (p, k, *modulus)):
            raise InputFormatError(
                "bad field description: p, k and modulus entries must be integers"
            )
        return cls(p, k, modulus)


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> Field:
    """Field of order p**k with the canonical (smallest) modulus."""
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Resolve an order like 16 or 17 to its unique field."""
    if q < 2:
        raise InputFormatError(f"no field of order {q}")
    if q > MAX_ORDER:
        raise SizeGuardError(f"field order {q} exceeds {MAX_ORDER}")
    for p in range(2, q + 1):
        if not _is_prime(p):
            continue
        k = 0
        v = q
        while v % p == 0:
            v //= p
            k += 1
        if v == 1 and k >= 1:
            return make_field(p, k)
        if q % p == 0:
            break
    raise InputFormatError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# linear algebra on plain rows
# ---------------------------------------------------------------------------


Rows = Sequence[Sequence[int]]


def _width(rows: Rows) -> int:
    """The common row length (0 without rows); ragged rows are refused."""
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise InputFormatError("ragged matrix rows")
    return width


def rref(field: Field, rows: Rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns the nonzero reduced rows, each with a leading 1, and their
    pivot columns in ascending order.  The input rows are not modified.
    The reduced rows depend only on the row space, not on the input order.
    """
    work = [list(r) for r in rows]
    ncols = _width(work)
    nrows = len(work)
    sub_mul_row = field.sub_mul_row
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = r
        while pivot < nrows and not work[pivot][c]:
            pivot += 1
        if pivot == nrows:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        if lead != 1:
            inv = field.inv(lead)
            work[r] = [field.mul(inv, v) for v in work[r]]
        prow = work[r]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                work[i] = sub_mul_row(work[i], f, prow)
        pivots.append(c)
    return work[: len(pivots)], pivots


def rank(field: Field, rows: Rows) -> int:
    """Rank of the rows over the field."""
    return len(rref(field, rows)[1])


def residual(field: Field, basis: Rows, pivots: Sequence[int], vec: Sequence[int]) -> list[int]:
    """vec minus its combination of the reduced rows `basis` with pivot
    columns `pivots`, as `rref` returns them.  Each reduced row is 0 in
    the other rows' pivot columns, so one pass clears every pivot column
    of vec, and the residual is all zero iff vec lies in their span."""
    out = list(vec)
    sub_mul_row = field.sub_mul_row
    for row, c in zip(basis, pivots):
        f = out[c]
        if f:
            out = sub_mul_row(out, f, row)
    return out


def in_rowspan(field: Field, rows: Rows, vec: Sequence[int]) -> bool:
    """True iff vec is a linear combination of the rows."""
    if rows and len(vec) != _width(rows):
        raise InputFormatError("vector length does not match matrix width")
    basis, pivots = rref(field, rows)
    return not any(residual(field, basis, pivots, vec))


def complete_basis(field: Field, rows: Rows, count: int) -> list[list[int]]:
    """The `count` unit vectors that the scan of e_0, e_1, ... keeping each
    one that raises the rank picks (without rows, of width `count`).  The
    scan skips e_j iff some span vector has its last nonzero entry at j,
    and those positions are the pivots of the rows with their columns
    reversed.  Unit vectors always suffice (Steinitz exchange)."""
    width = _width(rows) if rows else count
    last = {width - 1 - c for c in rref(field, [row[::-1] for row in rows])[1]}
    if len(last) + count > width:
        raise InputFormatError("not enough dimensions left to extend the basis")
    free = [j for j in range(width) if j not in last][:count]
    return [[int(c == j) for c in range(width)] for j in free]
