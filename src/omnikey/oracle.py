"""Brute force verification of protocols by exact enumeration.

Algebraic rank arguments say a protocol works; this module checks the
claim the expensive way.  In full mode every assignment of message values
is enumerated and, per client, the pair (own values, heard transmissions)
must determine the decoded output; key statistics come from exact integer
counting, so uniformity and independence hold bit for bit or not at all.

When the raw state space is too large but the transmissions and keys span
few dimensions, functional mode enumerates that row space instead: the
image of a uniform message vector under independent rows is itself
uniform, so the joint distribution of (keys, transmissions) is reproduced
exactly while per-client derivability falls back to the algebraic check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, SizeGuardError
from .fields import Field, rref
from .network import MessageFamily
from .protocols import Protocol, _client_cols, algebraic_issues

__all__ = [
    "STATE_GUARD",
    "JointHistogram",
    "VerifyReport",
    "verify_exhaustive",
    "mutual_information_exact",
]

STATE_GUARD = 1 << 23
_TABLE_GUARD = 1 << 12
_MAX_COUNTEREXAMPLES = 3


@dataclass(frozen=True)
class JointHistogram:
    """Exact joint counts of (key tuple, transmission tuple) codes."""

    counts: np.ndarray
    states: int
    q: int
    key_rows: int
    trans_rows: int

    def key_marginal(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def trans_marginal(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def mutual_information_exact(hist: JointHistogram) -> float:
    """Bits between keys and transmissions; exactly 0.0 when the integer
    independence identity count * N == key_count * trans_count holds."""
    counts = hist.counts.astype(np.int64)
    n = hist.states
    km = counts.sum(axis=1)
    tm = counts.sum(axis=0)
    if np.array_equal(counts * n, np.outer(km, tm)):
        return 0.0
    nz = counts > 0
    c = counts[nz].astype(np.float64)
    prod = np.outer(km, tm)[nz].astype(np.float64)
    return float(np.sum(c / n * np.log2(c * n / prod)))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run."""

    ok: bool
    kind: str
    mode: str
    states: int
    checks: tuple[str, ...]
    failures: tuple[str, ...]
    counterexamples: tuple[dict, ...]
    histogram: JointHistogram | None
    mutual_information: float | None


# ---------------------------------------------------------------------------
# vectorized field evaluation
# ---------------------------------------------------------------------------


class _Space:
    """All q**ncoords coordinate assignments, evaluated lazily per column."""

    def __init__(self, field: Field, ncoords: int):
        q = field.q
        if q > _TABLE_GUARD:
            raise SizeGuardError(f"field order {q} too large for enumeration tables")
        self.q = q
        self.ncoords = ncoords
        self.states = q**ncoords
        self.dtype = np.uint8 if q <= 256 else np.uint16
        self.add = np.zeros((q, q), dtype=self.dtype)
        self.mul = np.zeros((q, q), dtype=self.dtype)
        for a in range(q):
            for b in range(q):
                self.add[a, b] = field.add(a, b)
                self.mul[a, b] = field.mul(a, b)
        self.codes = np.arange(self.states, dtype=np.int64)
        self._digits: dict[int, np.ndarray] = {}

    def digit(self, c: int) -> np.ndarray:
        arr = self._digits.get(c)
        if arr is None:
            arr = ((self.codes // self.q**c) % self.q).astype(self.dtype)
            self._digits[c] = arr
        return arr

    def eval_row(self, row) -> np.ndarray:
        acc = np.zeros(self.states, dtype=self.dtype)
        for c, coeff in enumerate(row):
            if coeff:
                acc = self.add[acc, self.mul[coeff][self.digit(c)]]
        return acc

    def pack(self, parts: list[np.ndarray]) -> np.ndarray:
        """Combine digit arrays into one base-q code."""
        out = np.zeros(self.states, dtype=np.int64)
        mult = 1
        for p in parts:
            out += p.astype(np.int64) * mult
            mult *= self.q
        return out

    def unpack(self, code: int, count: int) -> tuple[int, ...]:
        digits = []
        for _ in range(count):
            digits.append(code % self.q)
            code //= self.q
        return tuple(digits)


def _determines(view: np.ndarray, out: np.ndarray, out_space: int):
    """Does the view fix the output?  Returns (ok, pair of clashing state
    indices or None)."""
    _, inv = np.unique(view, return_inverse=True)
    pair = inv.astype(np.int64) * out_space + out
    order = np.argsort(pair, kind="stable")
    sv = inv[order]
    so = out[order]
    clash = (sv[1:] == sv[:-1]) & (so[1:] != so[:-1])
    hits = np.nonzero(clash)[0]
    if hits.size == 0:
        return True, None
    i = int(hits[0])
    return False, (int(order[i]), int(order[i + 1]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_exhaustive(protocol: Protocol, fam: MessageFamily) -> VerifyReport:
    """Enumerate states (or the spanned row space) and check everything."""
    if protocol.n != fam.n or protocol.m != fam.m:
        raise InputFormatError("protocol shape does not match the family")
    field = protocol.field
    q = field.q
    width = protocol.m * protocol.dim
    checks: list[str] = []
    failures: list[str] = []
    counterexamples: list[dict] = []

    issues = algebraic_issues(protocol, fam)
    if issues:
        failures.extend(f"algebra: {msg}" for msg in issues)
    else:
        checks.append("algebraic rank and locality conditions hold")

    if q**width <= STATE_GUARD:
        mode = "full"
        space = _Space(field, width)
        active = [list(r) for r in protocol.rows]
    else:
        mode = "functional"
        if protocol.kind == "omniscience":
            raise SizeGuardError(
                f"{q}**{width} states exceed the enumeration guard"
            )
        # Reducing the transpose writes every row in the basis of the
        # first independent rows, each of which gets a unit vector and so
        # costs eval_row one digit.  Any basis gives the same histogram.
        spanned = protocol.rows + protocol.key_rows
        reduced = rref(field, list(zip(*spanned)))[0]
        r = len(reduced)
        if q**r > STATE_GUARD:
            raise SizeGuardError(
                f"{q}**{r} spanned states exceed the enumeration guard"
            )
        space = _Space(field, r)
        active = [[row[j] for row in reduced] for j in range(len(spanned))]

    trans_vals = [space.eval_row(row) for row in active[: len(protocol.rows)]]
    t_code = space.pack(trans_vals)
    t_space = q ** len(protocol.rows)

    if protocol.kind == "omniscience":
        hist = None
        mi = None
        for j in range(1, fam.n + 1):
            cols = _client_cols(fam, j, protocol.dim)
            own = space.pack([space.digit(c) for c in cols])
            view = own * t_space + t_code
            ok, clash = _determines(view, space.codes, space.states)
            if ok:
                checks.append(f"client {j} can reconstruct every message")
            else:
                failures.append(f"client {j} cannot tell two message states apart")
                if len(counterexamples) < _MAX_COUNTEREXAMPLES:
                    a, b = clash
                    counterexamples.append(
                        {
                            "client": j,
                            "state_a": space.unpack(a, width),
                            "state_b": space.unpack(b, width),
                        }
                    )
    else:
        if mode == "full":
            key_vals = [space.eval_row(list(r)) for r in protocol.key_rows]
        else:
            key_vals = [space.eval_row(row) for row in active[len(protocol.rows) :]]
        k_code = space.pack(key_vals)
        k_space = q ** len(protocol.key_rows)
        joint = np.bincount(
            k_code * t_space + t_code, minlength=k_space * t_space
        ).reshape(k_space, t_space)
        hist = JointHistogram(
            joint, space.states, q, len(protocol.key_rows), len(protocol.rows)
        )
        km = hist.key_marginal()
        if np.all(km * k_space == space.states):
            checks.append(f"key tuple uniform over {k_space} values")
        else:
            failures.append("key tuple is not uniform")
        if np.array_equal(joint * space.states, np.outer(km, hist.trans_marginal())):
            checks.append("keys exactly independent of the transmissions")
        else:
            failures.append("keys are correlated with the transmissions")
        mi = mutual_information_exact(hist)
        if mode == "full":
            for j in range(1, fam.n + 1):
                cols = _client_cols(fam, j, protocol.dim)
                own = space.pack([space.digit(c) for c in cols])
                view = own * t_space + t_code
                ok, clash = _determines(view, k_code, k_space)
                if ok:
                    checks.append(f"client {j} view determines the key")
                else:
                    failures.append(f"client {j} cannot pin down the key")
                    if len(counterexamples) < _MAX_COUNTEREXAMPLES:
                        a, b = clash
                        counterexamples.append(
                            {
                                "client": j,
                                "state_a": space.unpack(a, width),
                                "state_b": space.unpack(b, width),
                            }
                        )
        else:
            checks.append(
                "per-client key derivation checked algebraically (state space too large)"
            )

    return VerifyReport(
        ok=not failures,
        kind=protocol.kind,
        mode=mode,
        states=space.states,
        checks=tuple(checks),
        failures=tuple(failures),
        counterexamples=tuple(counterexamples),
        histogram=hist,
        mutual_information=mi,
    )
