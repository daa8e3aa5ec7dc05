"""Brute force verification of protocols by exact enumeration.

Algebraic rank arguments say a protocol works; this module checks the
claim the expensive way.  In full mode the key statistics count every
assignment of message values in exact integers, so uniformity and
independence hold bit for bit or not at all, and per client the pair
(own values, heard transmissions) must determine the decoded output.

That per-client check runs on the slice of states where the client's own
coordinates are 0.  Every row is a linear form, so with the own part
fixed to a the transmissions are t(0, y) + t(a, 0) and the keys
k(0, y) + k(a, 0): the own-zero slice's values shifted by a constant,
which is a bijection.  For omniscience the output is the state itself,
which is one-to-one on every slice.  Views from different slices differ
in their own part, so the view determines the output on all q**width
states iff it does on that slice of q**(width - own) states.  Its views
are also the smallest, their own part being 0, so the first clashing
pair found there is the one a sort of every state would report.

When the raw state space is too large but the transmissions and keys span
few dimensions, functional mode enumerates that row space instead: the
image of a uniform message vector under independent rows is itself
uniform, so the joint distribution of (keys, transmissions) is reproduced
exactly while per-client derivability falls back to the algebraic check.

Either space is a C-order grid with one axis of length q per coordinate,
so a state's flat index is its base-q code.  A row is evaluated by
broadcasting one scaled length-q vector per nonzero coefficient along
that coordinate's axis: prime fields add and reduce mod p in uint8 or
uint16, and only prime-power fields gather from q x q addition and
multiplication tables.  A value spans only the axes it depends on until
it is combined with others, and a client's view is checked with one
stable sort of its own-zero slice.  Omniscience mode packs the
transmission rows into that view on the slice alone, q**(width - own)
states per client, and never packs a transmission code over the whole
grid; secret-key mode packs the whole code once for the histogram and
slices it.

The (key, transmission) histogram is counted from the two codes as they
stand.  When they share no axis, every key point meets every
transmission point on the same number of states, so the histogram is the
outer product of the two codes' bincounts times that number: exact
integers, kept as those two factors, with no code over both sets of axes
and no table of every cell built unless `JointHistogram.counts` is read.
This is the usual case in functional mode, where independent rows span
one axis each.  Such a histogram is independent by construction, so its
verdict is the disjoint-axes test itself, with exactly 0.0 bits: with
the keys on axes A and the transmissions on disjoint axes B, count[k, t]
= kc[k] * tc[t] * q**rest, where kc and tc count the points of A and B
that take k and t, and the key and transmission marginals are kc[k] *
q**(|B| + rest) and tc[t] * q**(|A| + rest), so count * N == key *
trans in every cell, N being q**(|A| + |B| + rest).  When the
codes share an axis, the combined code is built over the axes either
depends on and counted with one bincount, and independence is checked
against the product of the marginals in blocks of at most
_INDEPENDENCE_BLOCK cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputFormatError, SizeGuardError
from .fields import Field, rref
from .network import MessageFamily
from .protocols import LinearProtocol, _client_cols, algebraic_issues

__all__ = [
    "STATE_GUARD",
    "JointHistogram",
    "VerifyReport",
    "verify_exhaustive",
    "mutual_information_exact",
]

STATE_GUARD = 1 << 23
_TABLE_GUARD = 1 << 12
# cells of the int64 (key, transmission) histogram, 64 MiB
_HISTOGRAM_GUARD = 1 << 23
# cells of the histogram compared with the product of its marginals at once
_INDEPENDENCE_BLOCK = 1 << 16
_MAX_COUNTEREXAMPLES = 3


class JointHistogram:
    """Exact joint counts of (key tuple, transmission tuple) codes: `counts`
    has shape (q**key_rows, q**trans_rows).  A histogram of codes on
    disjoint axes is kept as its two `factors`, counts = outer(key
    factor, transmission factor), and the table is multiplied out when
    `counts` is first read."""

    def __init__(
        self,
        counts: np.ndarray | None,
        states: int,
        q: int,
        key_rows: int,
        trans_rows: int,
        factors: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.states = states
        self.q = q
        self.key_rows = key_rows
        self.trans_rows = trans_rows
        self.factors = factors
        if counts is not None:
            # a cached_property returns the instance's own entry when set
            self.__dict__["counts"] = counts

    @cached_property
    def counts(self) -> np.ndarray:
        return np.outer(*self.factors)

    def key_marginal(self) -> np.ndarray:
        if self.factors is not None:
            return self.factors[0] * self.factors[1].sum()
        return self.counts.sum(axis=1)

    def trans_marginal(self) -> np.ndarray:
        if self.factors is not None:
            return self.factors[0].sum() * self.factors[1]
        return self.counts.sum(axis=0)

    def independence(self) -> tuple[bool, float]:
        """(exactly independent?, bits); a factored histogram is
        independent by construction (see the module docstring)."""
        if self.factors is not None:
            return True, 0.0
        return _independence(np.asarray(self.counts, dtype=np.int64), self.states)


def _independence(counts: np.ndarray, states: int) -> tuple[bool, float]:
    """(exactly independent?, bits) from int64 joint counts; the bits are
    0.0 exactly when the integer identity count * N == key_count *
    trans_count holds.  The identity is checked a block of at most
    _INDEPENDENCE_BLOCK cells at a time: whole key rows when they fit, a
    column range of one row when a row alone is wider.  The whole outer
    product of the marginals is built only to measure a dependence."""
    keys = counts.sum(axis=1)
    trans = counts.sum(axis=0)
    rows = max(1, _INDEPENDENCE_BLOCK // trans.size)
    cols = min(trans.size, _INDEPENDENCE_BLOCK)
    if all(
        np.array_equal(
            counts[i : i + rows, j : j + cols] * states,
            np.outer(keys[i : i + rows], trans[j : j + cols]),
        )
        for i in range(0, keys.size, rows)
        for j in range(0, trans.size, cols)
    ):
        return True, 0.0
    indep = np.outer(keys, trans)
    nz = counts > 0
    c = counts[nz].astype(np.float64)
    return False, float(np.sum(c / states * np.log2(c * states / indep[nz])))


def mutual_information_exact(hist: JointHistogram) -> float:
    """Bits between keys and transmissions; exactly 0.0 when the integer
    independence identity count * N == key_count * trans_count holds."""
    return hist.independence()[1]


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
    """All q**ncoords coordinate assignments as a C-order grid of shape
    (q,)*ncoords, coordinate c on axis ncoords-1-c, so that a state's flat
    index is its base-q code.  Values are built by broadcasting length-q
    vectors along the axes they depend on and stay that small until they
    are combined with values on other axes."""

    def __init__(self, field: Field, ncoords: int):
        q = field.q
        if q > _TABLE_GUARD:
            raise SizeGuardError(f"field order {q} too large for enumeration tables")
        self.q = q
        self.ncoords = ncoords
        self.states = q**ncoords
        self.shape = (q,) * ncoords
        self.prime = field.k == 1
        if self.prime:
            # the sum of two residues must fit before it is reduced
            self.dtype = np.uint8 if 2 * (q - 1) <= 255 else np.uint16
        else:
            self.dtype = np.uint8 if q <= 256 else np.uint16
            # Addition is digit-wise mod p: the table for codes below
            # p**(i+1) is p x p blocks of the table below p**i, block (x, y)
            # offset by ((x + y) % p) * p**i.  Multiplication adds discrete
            # logs and reads the antilog table, repeated so that no sum of
            # two logs needs reducing.
            p = field.p
            digit_sum = ((np.arange(p)[:, None] + np.arange(p)) % p).astype(self.dtype)
            self.add = np.zeros((1, 1), dtype=self.dtype)
            size = 1
            for _ in range(field.k):
                self.add = (
                    digit_sum[:, None, :, None] * size + self.add[None, :, None, :]
                ).reshape(size * p, size * p)
                size *= p
            logs = np.array(field._log, dtype=np.uint16)
            antilog = np.array(field._exp * 2, dtype=self.dtype)
            self.mul = antilog[logs[:, None] + logs]
            self.mul[0, :] = 0
            self.mul[:, 0] = 0

    def along(self, c: int, vec: np.ndarray) -> np.ndarray:
        """A length-q vector indexed by coordinate c, shaped to broadcast."""
        shape = [1] * self.ncoords
        shape[self.ncoords - 1 - c] = self.q
        return vec.reshape(shape)

    def eval_row(self, row) -> np.ndarray:
        acc = np.zeros((1,) * self.ncoords, dtype=self.dtype)
        for c, coeff in enumerate(row):
            if not coeff:
                continue
            if self.prime:
                scaled = np.arange(self.q) * coeff % self.q
                acc = acc + self.along(c, scaled.astype(self.dtype))
                # below p the wrapped difference is the larger one
                np.minimum(acc, acc - self.dtype(self.q), out=acc)
            else:
                acc = self.add[acc, self.along(c, self.mul[coeff])]
        return acc

    def pack(self, parts) -> np.ndarray:
        """Combine values into one base-q code, the first least significant."""
        out = np.zeros((1,) * self.ncoords, dtype=np.int64)
        mult = 1
        for p in parts:
            out = out + p.astype(np.int64) * mult
            mult *= self.q
        return out

    def flat(self, values: np.ndarray) -> np.ndarray:
        """The values of every state, indexed by its code."""
        return np.broadcast_to(values, self.shape).ravel()

    def joint_counts(
        self, keys: np.ndarray, key_space: int, trans: np.ndarray, trans_space: int
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """How many states take each (key code, transmission code) pair:
        int64 counts of shape (key_space, trans_space), or, when the codes
        share no axis, the int64 key and transmission factors whose outer
        product they are.  Every point of the axes a value depends on
        stands for the same number of states, so codes on disjoint axes
        are counted apart (see the module docstring)."""
        if any(k > 1 and t > 1 for k, t in zip(keys.shape, trans.shape)):
            codes = keys * trans_space + trans
            joint = np.bincount(codes.ravel(), minlength=key_space * trans_space)
            joint *= self.states // codes.size
            return joint.reshape(key_space, trans_space)
        key_counts = np.bincount(keys.ravel(), minlength=key_space)
        key_counts *= self.states // (keys.size * trans.size)
        return key_counts, np.bincount(trans.ravel(), minlength=trans_space)

    def zero_at(self, values: np.ndarray, own) -> np.ndarray:
        """The values of the states whose coordinates `own` are 0, with
        those axes kept at length 1."""
        at = [slice(None)] * self.ncoords
        for c in own:
            at[self.ncoords - 1 - c] = slice(0, 1)
        return values[tuple(at)]

    def own_zero(self, values: np.ndarray, own) -> np.ndarray:
        """The values of the states whose coordinates `own` are 0, flat in
        the C order of the other coordinates, which is ascending state
        index."""
        at = [slice(None)] * self.ncoords
        for c in own:
            at[self.ncoords - 1 - c] = 0
        part = values[tuple(at)]
        return np.broadcast_to(part, (self.q,) * part.ndim).ravel()

    def own_zero_index(self, own) -> np.ndarray:
        """The state index of every state `own_zero` lists, built from the
        other coordinates' digits alone.  It grows one flat array from the
        most significant coordinate down, each step giving every index so
        far its q values of the next coordinate, which is ascending order."""
        digits = np.arange(self.q, dtype=np.int64)
        index = np.zeros(1, dtype=np.int64)
        for c in reversed(range(self.ncoords)):
            if c not in own:
                index = (index[:, None] + digits * self.q**c).ravel()
        return index

    def unpack(self, code: int, count: int) -> tuple[int, ...]:
        digits = []
        for _ in range(count):
            digits.append(code % self.q)
            code //= self.q
        return tuple(digits)


def _determines(view: np.ndarray, out: np.ndarray):
    """Does the view fix the output?  Returns (ok, pair of clashing state
    indices or None).  The pair is the first one a stable sort by (view,
    output) puts side by side: in the smallest view seen with two outputs,
    the last state with the smallest output and the first with the next."""
    order = np.argsort(view, kind="stable")
    sv = view[order]
    so = out[order]
    hits = np.flatnonzero((sv[1:] == sv[:-1]) & (so[1:] != so[:-1]))
    if hits.size == 0:
        return True, None
    at = sv == sv[hits[0]]
    group, outs = order[at], so[at]
    first = outs.min()
    second = outs[outs != first].min()
    return False, (int(group[outs == first][-1]), int(group[outs == second][0]))


def _client_determines(space: _Space, own, t_parts, k_code: np.ndarray | None):
    """Does a client holding the coordinates `own` and hearing the
    transmissions fix the key `k_code`, or every coordinate when it is
    None?  `t_parts` are the values `pack` combines into the transmission
    code: the rows' values, or the code itself as its one part.  Returns
    (ok, pair of clashing state indices or None), checked on the own-zero
    slice (see the module docstring), where the parts are packed: the
    pair `_determines` would find over every state, with the view
    own_code * q**ntrans + transmission code."""
    index = space.own_zero_index(own)
    out = index if k_code is None else space.own_zero(k_code, own)
    if len(t_parts) == 1:
        # one part is already its own code; slicing it is enough
        view = t_parts[0]
    else:
        view = space.pack(space.zero_at(part, own) for part in t_parts)
    ok, clash = _determines(space.own_zero(view, own), out)
    if clash is None:
        return ok, None
    return ok, (int(index[clash[0]]), int(index[clash[1]]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_exhaustive(protocol: LinearProtocol, fam: MessageFamily) -> VerifyReport:
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

    spanned = protocol.rows + protocol.key_rows
    if q**width <= STATE_GUARD:
        mode = "full"
        space = _Space(field, width)
        active = spanned
    else:
        mode = "functional"
        if protocol.kind == "omniscience":
            raise SizeGuardError(
                f"{q}**{width} states exceed the enumeration guard"
            )
        # Reducing the transpose writes every row in the basis of the
        # first independent rows, each of which gets a unit vector and so
        # spans one axis of the grid.  Any basis gives the same histogram.
        reduced = rref(field, list(zip(*spanned)))[0]
        r = len(reduced)
        if q**r > STATE_GUARD:
            raise SizeGuardError(
                f"{q}**{r} spanned states exceed the enumeration guard"
            )
        space = _Space(field, r)
        active = [[row[j] for row in reduced] for j in range(len(spanned))]

    ntrans = len(protocol.rows)
    nkeys = len(protocol.key_rows)
    if protocol.kind == "secret-key" and q ** (nkeys + ntrans) > _HISTOGRAM_GUARD:
        raise SizeGuardError(
            f"{q}**{nkeys + ntrans} key and transmission values exceed the histogram guard"
        )
    # a client's view is an int64 code over its coordinates and the
    # transmissions
    if mode == "full" and q ** (width + ntrans) > 1 << 63:
        raise SizeGuardError(f"{q}**{width + ntrans} client views overflow 64-bit codes")
    t_parts = [space.eval_row(row) for row in active[:ntrans]]
    t_space = q**ntrans

    hist = None
    mi = None
    k_code = None
    claims = None
    if protocol.kind == "omniscience":
        claims = (
            "can reconstruct every message",
            "cannot tell two message states apart",
        )
    else:
        k_code = space.pack(space.eval_row(row) for row in active[ntrans:])
        k_space = q**nkeys
        t_code = space.pack(t_parts)
        joint = space.joint_counts(k_code, k_space, t_code, t_space)
        # packed for the histogram anyway, so each client slices it whole
        t_parts = [t_code]
        if isinstance(joint, tuple):
            hist = JointHistogram(None, space.states, q, nkeys, ntrans, factors=joint)
        else:
            hist = JointHistogram(joint, space.states, q, nkeys, ntrans)
        if np.all(hist.key_marginal() * k_space == space.states):
            checks.append(f"key tuple uniform over {k_space} values")
        else:
            failures.append("key tuple is not uniform")
        independent, mi = hist.independence()
        if independent:
            checks.append("keys exactly independent of the transmissions")
        else:
            failures.append("keys are correlated with the transmissions")
        if mode == "full":
            claims = ("view determines the key", "cannot pin down the key")
        else:
            checks.append(
                "per-client key derivation checked algebraically (state space too large)"
            )

    if claims is not None:
        for j in range(1, fam.n + 1):
            cols = _client_cols(fam, j, protocol.dim)
            ok, clash = _client_determines(space, cols, t_parts, k_code)
            if ok:
                checks.append(f"client {j} {claims[0]}")
            else:
                failures.append(f"client {j} {claims[1]}")
                if len(counterexamples) < _MAX_COUNTEREXAMPLES:
                    a, b = clash
                    counterexamples.append(
                        {
                            "client": j,
                            "state_a": space.unpack(a, width),
                            "state_b": space.unpack(b, width),
                        }
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
