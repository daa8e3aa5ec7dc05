from __future__ import annotations

import random
import time

import pytest

import omnikey.fields as fields_mod
from omnikey import Field, field_from_order, make_field
from omnikey.errors import InputFormatError, SizeGuardError
from omnikey.fields import (
    MAX_ORDER,
    complete_basis,
    in_rowspan,
    rank,
    residual,
    rref,
)

from conftest import brute_span, brute_unit_completion, solve_combination

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25]


def test_field_axioms_exhaustive():
    for q in SMALL_ORDERS:
        f = field_from_order(q)
        elems = f.elements()
        assert len(elems) == q
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)


def test_distributivity_small_fields():
    for q in [4, 5, 9]:
        f = field_from_order(q)
        for a in f.elements():
            for b in f.elements():
                for c in f.elements():
                    left = f.mul(a, f.add(b, c))
                    right = f.add(f.mul(a, b), f.mul(a, c))
                    assert left == right


def test_inverses_and_division():
    for q in SMALL_ORDERS:
        f = field_from_order(q)
        for a in range(1, q):
            inv = f.inv(a)
            assert f.mul(a, inv) == 1
            assert f.div(1, a) == inv
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_negation_cancels():
    for q in SMALL_ORDERS:
        f = field_from_order(q)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, a) == 0


def test_pow_matches_repeated_multiplication():
    for q in [7, 9, 16]:
        f = field_from_order(q)
        for a in f.elements():
            acc = 1
            for e in range(6):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)


def test_fermat_identity():
    for q in SMALL_ORDERS:
        f = field_from_order(q)
        for a in range(1, q):
            assert f.pow(a, q - 1) == 1
            assert f.pow(a, q) == a


def test_field_from_order_rejects_non_prime_powers():
    for bad in [0, 1, 6, 10, 12, 100]:
        with pytest.raises(InputFormatError):
            field_from_order(bad)


def test_make_field_is_cached():
    assert make_field(2, 4) is make_field(2, 4)
    assert field_from_order(16) is make_field(2, 4)


def test_field_serialization_round_trip():
    for q in SMALL_ORDERS:
        f = field_from_order(q)
        again = Field.from_dict(f.to_dict())
        assert again == f
        assert again.q == q
        assert again.modulus == f.modulus


def test_custom_modulus_rejected_when_reducible():
    # x^2 + 1 = (x + 2)(x + 3) over GF(5)
    with pytest.raises(InputFormatError):
        Field(5, 2, (1, 0, 1))


def test_prime_field_is_plain_modular_arithmetic():
    f = field_from_order(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_gf4_tables():
    f = field_from_order(4)
    # elements 0, 1, x, x+1 with x^2 = x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1


def test_rank_identity_and_duplicates():
    f = field_from_order(5)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(f, rows) == 3
    assert rank(f, rows + [[1, 1, 1], [2, 0, 3]]) == 3
    assert rank(f, [[0, 0, 0]]) == 0
    assert rank(f, []) == 0


def test_rank_unchanged_by_appending_combinations():
    rng = random.Random(7)
    f = field_from_order(7)
    for _ in range(25):
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(4)]
        r = rank(f, rows)
        assert 0 <= r <= 4
        coeffs = [rng.randrange(7) for _ in range(4)]
        combo = [0] * 5
        for c, row in zip(coeffs, rows):
            for i, v in enumerate(row):
                combo[i] = f.add(combo[i], f.mul(c, v))
        assert rank(f, rows + [combo]) == r


def test_in_rowspan():
    f = field_from_order(3)
    rows = [[1, 1, 0], [0, 1, 1]]
    assert in_rowspan(f, rows, [1, 2, 1])
    assert in_rowspan(f, rows, [0, 0, 0])
    assert in_rowspan(f, rows, [2, 2, 0])
    assert not in_rowspan(f, rows, [1, 0, 1])
    assert not in_rowspan(f, rows, [0, 0, 1])


def test_solve_combination_recovers_a_valid_witness():
    rng = random.Random(11)
    f = field_from_order(8)
    for _ in range(30):
        rows = [[rng.randrange(8) for _ in range(6)] for _ in range(3)]
        coeffs = [rng.randrange(8) for _ in range(3)]
        target = [0] * 6
        for c, row in zip(coeffs, rows):
            for i, v in enumerate(row):
                target[i] = f.add(target[i], f.mul(c, v))
        found = solve_combination(f, rows, target)
        assert found is not None
        rebuilt = [0] * 6
        for c, row in zip(found, rows):
            for i, v in enumerate(row):
                rebuilt[i] = f.add(rebuilt[i], f.mul(c, v))
        assert rebuilt == target


def test_solve_combination_outside_span():
    f = field_from_order(2)
    rows = [[1, 0, 0], [0, 1, 0]]
    assert solve_combination(f, rows, [0, 0, 1]) is None
    assert solve_combination(f, [], [0, 0]) == []
    assert solve_combination(f, [], [1, 0]) is None


def test_complete_basis_extends_to_full_rank():
    rng = random.Random(3)
    for q in [2, 3, 4]:
        f = field_from_order(q)
        for _ in range(10):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(2)]
            count = 5 - rank(f, rows)
            extra = complete_basis(f, rows, count)
            assert len(extra) == count
            assert rank(f, rows + extra) == 5


def test_complete_basis_makes_one_elimination(monkeypatch):
    calls = []
    real = fields_mod.rref

    def counting(field, rows):
        calls.append(field)
        return real(field, rows)

    monkeypatch.setattr(fields_mod, "rref", counting)
    f = field_from_order(3)
    rows = [[1, 2, 0, 0, 1], [0, 0, 1, 1, 0]]
    for count in range(4):
        calls.clear()
        assert len(complete_basis(f, rows, count)) == count
        assert len(calls) == 1


def test_complete_basis_rejects_impossible_counts():
    f = field_from_order(2)
    with pytest.raises(InputFormatError):
        complete_basis(f, [[1, 0], [0, 1]], 1)


def test_ragged_matrix_rejected():
    f = field_from_order(2)
    for rows in ([[1, 0], [1]], [[1], [1, 0]]):
        for call in (
            lambda: rref(f, rows),
            lambda: rank(f, rows),
            lambda: in_rowspan(f, rows, [1, 0]),
            # transposes the rows before it reaches rref
            lambda: solve_combination(f, rows, [1, 0]),
            lambda: complete_basis(f, rows, 1),
        ):
            with pytest.raises(InputFormatError, match="ragged"):
                call()


def test_oversized_orders_are_refused_before_any_primality_test():
    for call in (
        lambda: Field(2**61 - 1, 1),
        lambda: Field(3, 10**9),
        lambda: field_from_order(2**31 - 1),
        lambda: field_from_order(MAX_ORDER + 1),
    ):
        started = time.perf_counter()
        with pytest.raises(SizeGuardError):
            call()
        assert time.perf_counter() - started < 0.5


def test_order_at_the_cap_passes_the_guard():
    # 2**16 itself is allowed, so the primality test gets to reject it
    with pytest.raises(InputFormatError):
        Field(MAX_ORDER, 1)


# -- the elimination kernel against span enumeration -----------------------

KERNEL_ORDERS = [2, 3, 4, 5, 9]


def random_matrices(seed: int, per_field: int = 25):
    """Sparse random matrices up to 4x5, some with a repeated row."""
    rng = random.Random(seed)
    for q in KERNEL_ORDERS:
        f = field_from_order(q)
        for _ in range(per_field):
            nr, nc = rng.randint(0, 4), rng.randint(1, 5)
            rows = [
                [rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(nc)]
                for _ in range(nr)
            ]
            if nr >= 2 and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            yield f, rows, nc, rng


def combine(f, coeffs, rows, ncols):
    out = [0] * ncols
    for c, row in zip(coeffs, rows):
        for i, v in enumerate(row):
            out[i] = f.add(out[i], f.mul(c, v))
    return out


def test_rref_is_reduced_and_spans_the_same_space():
    for f, rows, nc, rng in random_matrices(41):
        reduced, pivots = rref(f, rows)
        assert len(reduced) == len(pivots)
        assert pivots == sorted(set(pivots))
        for row, p in zip(reduced, pivots):
            assert all(v == 0 for v in row[:p]) and row[p] == 1
            assert [r[p] for r in reduced].count(0) == len(reduced) - 1
        assert brute_span(f, reduced, nc) == brute_span(f, rows, nc)
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        assert rref(f, shuffled) == (reduced, pivots)


def test_rank_and_span_membership_match_enumeration():
    for f, rows, nc, rng in random_matrices(42):
        span = brute_span(f, rows, nc)
        assert f.q ** rank(f, rows) == len(span)
        probes = [[rng.randrange(f.q) for _ in range(nc)] for _ in range(6)]
        probes += [list(v) for v in rng.sample(sorted(span), min(4, len(span)))]
        reduced, pivots = rref(f, rows)
        for vec in probes:
            inside = tuple(vec) in span
            assert in_rowspan(f, rows, vec) == inside
            # the residual is vec minus a span vector, and zero at every pivot
            res = residual(f, reduced, pivots, vec)
            assert any(res) != inside
            assert tuple(f.sub(v, r) for v, r in zip(vec, res)) in span
            assert all(res[c] == 0 for c in pivots)
            coeffs = solve_combination(f, rows, vec)
            assert (coeffs is not None) == inside
            if coeffs is not None:
                assert len(coeffs) == len(rows)
                assert combine(f, coeffs, rows, nc) == vec


def test_complete_basis_matches_the_unit_vector_scan():
    for f, rows, nc, _ in random_matrices(43, per_field=15):
        free = nc - rank(f, rows)
        for count in range(free + 1):
            # a matrix without rows takes its width from the count
            width = nc if rows else count
            assert complete_basis(f, rows, count) == brute_unit_completion(f, rows, width, count)
        if rows:
            with pytest.raises(InputFormatError):
                complete_basis(f, rows, free + 1)
