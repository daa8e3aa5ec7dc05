"""Concrete linear broadcast protocols over small finite fields.

A protocol fixes, for each transmission, a sender and a coefficient row
over the message coordinates; secret key protocols add key rows that every
client must be able to reproduce while an eavesdropper who only hears the
transmissions learns nothing about them.  Synthesis searches structured
rows first (powers of distinct field elements), then seeded random rows,
escalating the field order until the algebraic checks pass.

A protocol of dimension d splits every message into d components over a
smaller field; coordinate d*i + c is component c of message i + 1.  A
scalar protocol is the case d == 1.

A client holding the coordinates H learns exactly the vectors in
span(T) + span(e_h : h in H), T being the transmission rows, so every
algebraic check is asked in the quotient V / span(T) after one `rref` of
T.  With F the non-pivot columns of the reduced rows R, the quotient is
written on F: a free column maps to its unit vector, the pivot column of
row i to minus row i of R on F, and any other vector to its `residual`
against R on F.  A client decodes every message iff the images of H have
rank |F|, derives a key iff the key's image lies in their span, and the
keys leak iff their images are dependent.  A client's elimination is then
|H| rows by |F| columns, instead of every transmission row by every
coordinate the client lacks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from itertools import count
from typing import Iterator, Sequence

from .errors import (
    InfeasibleError,
    InputFormatError,
    SizeGuardError,
    SynthesisExhaustedError,
    check_tau,
    is_int,
)
from .fields import (
    Field,
    complete_basis,
    field_from_order,
    make_field,
    rank,
    residual,
    rref,
)
from .network import GAP_GUARD_M, MessageFamily, make_gap, restrict
from .omniscience import min_broadcasts
from .secrecy import min_key_support

__all__ = [
    "LinearProtocol",
    "synth_omniscience",
    "synth_sk",
    "synth_chain",
    "split_gap_protocol",
    "algebraic_issues",
    "check_omniscience",
    "check_secret_key",
    "evaluate_rows",
    "decode_messages",
    "compute_key",
    "protocol_to_json",
    "protocol_from_json",
]

_MAX_ATTEMPTS = 64
_TRIES_PER_FIELD = 8

_KINDS = ("omniscience", "secret-key")


def _check_rows(field: Field, rows, width: int, what: str) -> None:
    for r in rows:
        if len(r) != width:
            raise InputFormatError(f"{what} must have {width} coordinates")
        for v in r:
            if not is_int(v) or not 0 <= v < field.q:
                raise InputFormatError(f"{what} entries must be field codes below {field.q}")


@dataclass(frozen=True)
class LinearProtocol:
    """`dim` field symbols per message; each transmission is `dim` rows.

    A scalar protocol is the case dim == 1."""

    field: Field
    n: int
    m: int
    kind: str
    senders: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    key_rows: tuple[tuple[int, ...], ...] = ()
    support: tuple[int, ...] = dc_field(default=())
    dim: int = 1

    def __post_init__(self) -> None:
        for what, v in (("clients", self.n), ("messages", self.m), ("dimension", self.dim)):
            if not is_int(v) or v < 1:
                raise InputFormatError(f"{what} must be a positive integer")
        if self.kind not in _KINDS:
            raise InputFormatError(f"unknown protocol kind {self.kind!r}")
        if len(self.rows) != self.dim * len(self.senders):
            raise InputFormatError("row count must be dimension times transmission count")
        for s in self.senders:
            if not is_int(s) or not 1 <= s <= self.n:
                raise InputFormatError(f"sender {s!r} is not a client")
        width = self.m * self.dim
        _check_rows(self.field, self.rows, width, "transmission rows")
        _check_rows(self.field, self.key_rows, width, "key rows")
        if self.kind == "omniscience" and self.key_rows:
            raise InputFormatError("omniscience protocols carry no key rows")
        if self.kind == "secret-key" and not self.key_rows:
            raise InputFormatError("secret key protocols need at least one key row")
        if not self.support:
            object.__setattr__(self, "support", tuple(range(1, self.m + 1)))
        labels = self.support
        if not (
            all(is_int(s) and 1 <= s <= self.m for s in labels)
            and list(labels) == sorted(set(labels))
        ):
            raise InputFormatError("support must list distinct message labels in order")


# ---------------------------------------------------------------------------
# algebraic checks
# ---------------------------------------------------------------------------


def _positions(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _client_cols(fam: MessageFamily, client: int, dim: int) -> list[int]:
    cols = []
    for i in _positions(fam.masks[client - 1]):
        cols.extend(range(i * dim, i * dim + dim))
    return cols


def _missing_cols(fam: MessageFamily, client: int, dim: int) -> list[int]:
    held = set(_client_cols(fam, client, dim))
    return [c for c in range(fam.m * dim) if c not in held]


class _Quotient:
    """V / span(rows) for rows of the given width, written on the free
    (non-pivot) columns of their `rref`."""

    def __init__(self, field: Field, rows, width: int):
        self.field = field
        self.basis, self.pivots = rref(field, rows)
        pivot_set = set(self.pivots)
        self.free = [c for c in range(width) if c not in pivot_set]
        self.dim = len(self.free)
        images: list[list[int]] = [[] for _ in range(width)]
        for i, c in enumerate(self.free):
            unit = [0] * self.dim
            unit[i] = 1
            images[c] = unit
        # e_c - R[i] lies in the same coset and is zero at every pivot
        for row, c in zip(self.basis, self.pivots):
            images[c] = [field.neg(row[f]) for f in self.free]
        self._images = images

    def images(self, cols: Sequence[int]) -> list[list[int]]:
        """The images of the unit vectors e_c for c in cols."""
        return [self._images[c] for c in cols]

    def image(self, vec: Sequence[int]) -> list[int]:
        res = residual(self.field, self.basis, self.pivots, vec)
        return [res[f] for f in self.free]

    def spans(self, cols: Sequence[int]) -> bool:
        """True iff span(rows) + span(e_c : c in cols) is the whole space."""
        return rank(self.field, self.images(cols)) == self.dim


def algebraic_issues(protocol: LinearProtocol, fam: MessageFamily) -> list[str]:
    """Every check failure as a message; an empty list means the protocol
    is sound for this family."""
    if protocol.n != fam.n or protocol.m != fam.m:
        raise InputFormatError("protocol shape does not match the family")
    field = protocol.field
    dim = protocol.dim
    issues: list[str] = []
    for t, sender in enumerate(protocol.senders):
        allowed = set(_client_cols(fam, sender, dim))
        for d in range(dim):
            row = protocol.rows[t * dim + d]
            if any(v and c not in allowed for c, v in enumerate(row)):
                issues.append(
                    f"transmission {t + 1} uses messages its sender {sender} does not hold"
                )
                break
    quotient = _Quotient(field, protocol.rows, fam.m * dim)
    if protocol.kind == "omniscience":
        for j in range(1, fam.n + 1):
            if not quotient.spans(_client_cols(fam, j, dim)):
                issues.append(f"client {j} cannot decode every message")
    else:
        keys = [quotient.image(key) for key in protocol.key_rows]
        if rank(field, keys) != len(keys):
            issues.append("the keys leak through the transmissions")
        # one elimination per client: each key is derivable iff its
        # residual against the reduced images of the client's holdings
        # is zero
        for j in range(1, fam.n + 1):
            basis, pivots = rref(field, quotient.images(_client_cols(fam, j, dim)))
            for i, key in enumerate(keys):
                if any(residual(field, basis, pivots, key)):
                    issues.append(f"client {j} cannot derive key {i + 1}")
    return issues


def check_omniscience(protocol: LinearProtocol, fam: MessageFamily) -> bool:
    """True iff every client can decode every message from own holdings
    plus the transmissions, each sent from messages its sender holds."""
    if protocol.kind != "omniscience":
        raise InputFormatError("not an omniscience protocol")
    return not algebraic_issues(protocol, fam)


def check_secret_key(protocol: LinearProtocol, fam: MessageFamily) -> bool:
    """True iff all clients reproduce all keys and the keys stay jointly
    uniform given everything that was broadcast."""
    if protocol.kind != "secret-key":
        raise InputFormatError("not a secret key protocol")
    return not algebraic_issues(protocol, fam)


# ---------------------------------------------------------------------------
# applying a protocol to concrete values
# ---------------------------------------------------------------------------


def evaluate_rows(field: Field, rows: Sequence[Sequence[int]], values: Sequence[int]) -> list[int]:
    """Row-by-row inner products; `values` holds all message coordinates."""
    out = []
    for row in rows:
        acc = 0
        for c, v in zip(row, values):
            if c:
                acc = field.add(acc, field.mul(c, v))
        out.append(acc)
    return out


def _client_view(
    protocol: LinearProtocol, fam: MessageFamily, client: int, own, received
) -> tuple[list[int], list[int], list[list[int]], list[int]]:
    """The client's own values (0 at the `missing` coordinates it lacks),
    `missing`, and the `rref` of its transmissions cut to `missing`, each
    augmented with the heard value minus what the own values explain."""
    if not 1 <= client <= fam.n:
        raise InputFormatError(f"client {client} is not in the family")
    cols = _client_cols(fam, client, protocol.dim)
    if len(own) != len(cols):
        raise InputFormatError(
            f"client {client} holds {len(cols)} coordinates, got {len(own)}"
        )
    if len(received) != len(protocol.rows):
        raise InputFormatError("received values must cover every transmission row")
    field = protocol.field
    values = [0] * (protocol.m * protocol.dim)
    for c, v in zip(cols, own):
        values[c] = v
    missing = _missing_cols(fam, client, protocol.dim)
    explained = evaluate_rows(field, protocol.rows, values)
    view = [
        [row[c] for c in missing] + [field.sub(heard, part)]
        for row, heard, part in zip(protocol.rows, received, explained)
    ]
    reduced, pivots = rref(field, view)
    return values, missing, reduced, pivots


def decode_messages(
    protocol: LinearProtocol, fam: MessageFamily, client: int, own, received
) -> tuple[int, ...]:
    """All message coordinates as seen by one client after the protocol."""
    if protocol.kind != "omniscience":
        raise InputFormatError("only omniscience protocols decode every message")
    values, missing, reduced, pivots = _client_view(protocol, fam, client, own, received)
    if pivots[: len(missing)] != list(range(len(missing))):
        raise InfeasibleError(f"client {client} cannot decode from this protocol")
    if len(missing) in pivots:
        raise InputFormatError("the given values contradict each other")
    for c, row in zip(missing, reduced):
        values[c] = row[-1]
    return tuple(values)


def compute_key(
    protocol: LinearProtocol, fam: MessageFamily, client: int, own, received
) -> tuple[int, ...]:
    """The key coordinates as computed by one client: each key's own part
    minus the last entry of its missing part's residual against the view,
    which must be zero elsewhere for the client to derive the key."""
    if protocol.kind != "secret-key":
        raise InputFormatError("only secret key protocols produce keys")
    values, missing, reduced, pivots = _client_view(protocol, fam, client, own, received)
    field = protocol.field
    out = []
    own_parts = evaluate_rows(field, protocol.key_rows, values)
    for i, (key, part) in enumerate(zip(protocol.key_rows, own_parts)):
        res = residual(field, reduced, pivots, [key[c] for c in missing] + [0])
        if any(res[:-1]):
            raise InfeasibleError(f"client {client} cannot derive key {i + 1}")
        out.append(field.sub(part, res[-1]))
    if len(missing) in pivots:
        raise InputFormatError("the given values contradict each other")
    return tuple(out)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _field_ladder(start: int = 2) -> Iterator[Field]:
    """Every field of order `start` or more, smallest first; an order
    above MAX_ORDER raises SizeGuardError."""
    for q in count(start):
        try:
            yield field_from_order(q)
        except InputFormatError:
            continue


def _vander_rows(field: Field, col_sets, width: int) -> list[list[int]] | None:
    if field.q <= len(col_sets):
        return None
    rows = []
    for r, cols in enumerate(col_sets):
        alpha = r + 1
        row = [0] * width
        for c in cols:
            row[c] = field.pow(alpha, c)
        rows.append(row)
    return rows


def _random_rows(field: Field, col_sets, width: int, rng: random.Random) -> list[list[int]]:
    rows = []
    for cols in col_sets:
        row = [0] * width
        for c in cols:
            row[c] = rng.randrange(field.q)
        if all(row[c] == 0 for c in cols):
            row[rng.choice(cols)] = rng.randrange(1, field.q)
        rows.append(row)
    return rows


def _search_rows(col_sets, held_cols, width, seed, fields=None):
    """Coefficient rows letting every client reach full width, found by
    escalating fields (or within `fields` only); returns (field, rows).
    `held_cols` lists, per client, the coordinates it holds."""
    rng = random.Random(seed)
    attempts = 0
    for field in fields if fields is not None else _field_ladder():
        candidates = []
        vander = _vander_rows(field, col_sets, width)
        if vander is not None:
            candidates.append(vander)
        candidates.extend(
            _random_rows(field, col_sets, width, rng) for _ in range(_TRIES_PER_FIELD)
        )
        for rows in candidates:
            if attempts >= _MAX_ATTEMPTS:
                raise SynthesisExhaustedError(
                    f"no decodable coefficient rows after {attempts} attempts"
                )
            attempts += 1
            quotient = _Quotient(field, rows, width)
            if all(quotient.spans(cols) for cols in held_cols):
                return field, rows
    raise SynthesisExhaustedError(
        f"no decodable coefficient rows after {attempts} attempts"
    )


def _as_field(field: Field | int | None) -> Field | None:
    if field is None or isinstance(field, Field):
        return field
    return field_from_order(field)


def _min_omniscience(
    fam: MessageFamily, seed: int, field: Field | None
) -> tuple[Field, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(field, senders, rows) of a minimum omniscience protocol, in `field`
    or else the smallest workable field.

    Rows that let every client decode are independent at the optimum:
    otherwise all but one of them would do, below the minimum."""
    senders = []
    for j, a in enumerate(min_broadcasts(fam).allocation, start=1):
        senders.extend([j] * a)
    col_sets = [_positions(fam.masks[s - 1]) for s in senders]
    held_cols = [_client_cols(fam, j, 1) for j in range(1, fam.n + 1)]
    got, rows = _search_rows(
        col_sets, held_cols, fam.m, seed, None if field is None else [field]
    )
    return got, tuple(senders), tuple(tuple(r) for r in rows)


def synth_omniscience(
    fam: MessageFamily, seed: int = 0, field: Field | int | None = None
) -> LinearProtocol:
    """Protocol meeting the exact minimum broadcast count for the family.

    Coefficients come from the smallest workable field unless `field`
    pins one down."""
    got, senders, rows = _min_omniscience(fam, seed, _as_field(field))
    proto = LinearProtocol(got, fam.n, fam.m, "omniscience", senders, rows)
    assert check_omniscience(proto, fam)
    return proto


def synth_sk(
    fam: MessageFamily,
    tau: int,
    seed: int = 0,
    field: Field | int | None = None,
) -> LinearProtocol:
    """Minimum-transmission protocol agreeing on tau keys.

    Runs omniscience on the smallest supporting message subset, then
    completes the transmission rows to a basis; the completion rows are
    the keys.  `field` pins the coefficient field instead of escalating
    from GF(2)."""
    check_tau(tau)
    field = _as_field(field)
    support = min_key_support(fam, tau)
    if support is None:
        raise InfeasibleError(f"the family cannot agree on {tau} keys")
    sub = restrict(fam, support)
    got, senders, rows_w = _min_omniscience(sub, seed, field)
    assert len(senders) == sub.m - tau
    keys_w = complete_basis(got, rows_w, tau)
    sup_pos = fam.label_positions(support)

    def embed(row_w: Sequence[int]) -> tuple[int, ...]:
        row = [0] * fam.m
        for i, c in enumerate(sup_pos):
            row[c] = row_w[i]
        return tuple(row)

    proto = LinearProtocol(
        got,
        fam.n,
        fam.m,
        "secret-key",
        senders,
        tuple(embed(r) for r in rows_w),
        tuple(embed(r) for r in keys_w),
        tuple(c + 1 for c in sup_pos),
    )
    assert check_secret_key(proto, fam)
    return proto


def synth_chain(fam: MessageFamily) -> LinearProtocol:
    """One key from m - 1 binary sums walking the message adjacency.

    Two messages are adjacent when some client holds both; each newly
    reached message is announced as the sum with the message it was
    reached from, sent by a shared holder.  The first message is the key:
    every sum has even weight, so the key stays outside their span."""
    for j, mask in enumerate(fam.masks, start=1):
        if mask == 0:
            raise InfeasibleError(f"client {j} holds nothing and cannot join")
    m = fam.m
    visited = [False] * m
    visited[0] = True
    frontier = [0]
    rows: list[tuple[int, ...]] = []
    senders: list[int] = []
    while frontier:
        nxt: list[int] = []
        for a in frontier:
            bit = 1 << a
            for j in range(fam.n):
                if not fam.masks[j] & bit:
                    continue
                for b in _positions(fam.masks[j]):
                    if not visited[b]:
                        visited[b] = True
                        row = [0] * m
                        row[a] = 1
                        row[b] = 1
                        rows.append(tuple(row))
                        senders.append(j + 1)
                        nxt.append(b)
        frontier = nxt
    if not all(visited):
        raise InfeasibleError("the messages do not form one connected exchange")
    key = tuple(1 if i == 0 else 0 for i in range(m))
    proto = LinearProtocol(
        make_field(2), fam.n, fam.m, "secret-key", tuple(senders), tuple(rows), (key,)
    )
    assert check_secret_key(proto, fam)
    return proto


def split_gap_protocol(m: int) -> LinearProtocol:
    """Half-rate key protocol for the family where one client holds all m
    messages and every pair of messages has a dedicated holder.

    Each message splits into two components; mixing component pairs into
    derived symbols turns the broadcasts into evaluations of one low-degree
    polynomial, so any client holding two messages can interpolate the rest
    and rebuild the key from m/2 - 1 vector transmissions instead of m - 2
    scalar ones.  Sizes above GAP_GUARD_M (24) are refused with
    SizeGuardError."""
    if m < 4 or m % 2:
        raise InputFormatError("the pair-holder family needs an even m of at least 4")
    # the guard also bounds make_gap's m(m-1)/2 + 1 clients; checking them
    # all algebraically in the quotient takes milliseconds at m = 24
    if m > GAP_GUARD_M:
        raise SizeGuardError(
            f"the split construction supports at most {GAP_GUARD_M} messages, got {m}"
        )
    field = make_field(2, 2) if m == 4 else next(_field_ladder(m - 1))
    n = m * (m - 1) // 2 + 1
    width = 2 * m
    use_inf = field.q == m - 1
    finite = m - 1 if use_inf else m

    def mixed_row(wrow: Sequence[int]) -> tuple[int, ...]:
        # W_i = X_i^(0) + alpha_i * X_i^(1); the last message maps to the
        # evaluation at infinity when the field is one element short.
        row = [0] * width
        for i in range(finite):
            wi = wrow[i]
            if wi:
                row[2 * i] = wi
                row[2 * i + 1] = field.mul(wi, i)
        if use_inf and wrow[m - 1]:
            row[2 * (m - 1) + 1] = wrow[m - 1]
        return tuple(row)

    wrows = []
    for ell in range(m - 2):
        wrow = [field.pow(alpha, ell) for alpha in range(finite)]
        if use_inf:
            wrow.append(1 if ell == m - 3 else 0)
        wrows.append(wrow)
    keys_w = complete_basis(field, wrows, 2)
    proto = LinearProtocol(
        field,
        n,
        m,
        "secret-key",
        (1,) * (m // 2 - 1),
        tuple(mixed_row(r) for r in wrows),
        tuple(mixed_row(r) for r in keys_w),
        dim=2,
    )
    assert check_secret_key(proto, make_gap(m))
    return proto


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def protocol_to_json(protocol: LinearProtocol) -> str:
    """Canonical JSON; parsing it back reproduces the exact object."""
    dim = protocol.dim
    groups = [
        protocol.rows[t * dim : (t + 1) * dim] for t in range(len(protocol.senders))
    ]
    data = {
        "kind": protocol.kind,
        "clients": protocol.n,
        "messages": protocol.m,
        "dimension": dim,
        "field": protocol.field.to_dict(),
        "support": list(protocol.support),
        "transmissions": [
            {"sender": s, "rows": [list(r) for r in g]}
            for s, g in zip(protocol.senders, groups)
        ],
        "keys": [list(r) for r in protocol.key_rows],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def protocol_from_json(text: str) -> LinearProtocol:
    """Inverse of protocol_to_json, with strict validation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    expected = {
        "kind",
        "clients",
        "messages",
        "dimension",
        "field",
        "support",
        "transmissions",
        "keys",
    }
    if not isinstance(data, dict) or set(data) != expected:
        raise InputFormatError(f"protocol object must have exactly the keys {sorted(expected)}")
    if not isinstance(data["field"], dict):
        raise InputFormatError("field must be an object")
    field = Field.from_dict(data["field"])
    dim = data["dimension"]
    if not isinstance(data["transmissions"], list):
        raise InputFormatError("transmissions must be a list")
    senders = []
    rows: list[tuple[int, ...]] = []
    for entry in data["transmissions"]:
        if (
            not isinstance(entry, dict)
            or set(entry) != {"sender", "rows"}
            or not isinstance(entry["rows"], list)
        ):
            raise InputFormatError('each transmission needs "sender" and "rows"')
        if len(entry["rows"]) != dim:
            raise InputFormatError("each transmission needs one row per dimension")
        senders.append(entry["sender"])
        for r in entry["rows"]:
            if not isinstance(r, list):
                raise InputFormatError("rows must be lists")
            rows.append(tuple(r))
    if not isinstance(data["keys"], list) or any(
        not isinstance(r, list) for r in data["keys"]
    ):
        raise InputFormatError("keys must be a list of rows")
    # An empty support would stand for range(1, messages + 1), sized by an
    # unchecked count; protocol_to_json always writes the labels out.
    if not isinstance(data["support"], list) or not data["support"]:
        raise InputFormatError("support must be a nonempty list")
    return LinearProtocol(
        field,
        data["clients"],
        data["messages"],
        data["kind"],
        tuple(senders),
        tuple(rows),
        tuple(tuple(r) for r in data["keys"]),
        tuple(data["support"]),
        dim,
    )
