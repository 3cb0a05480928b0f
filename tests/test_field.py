"""Tests for table-driven finite field arithmetic."""

from __future__ import annotations

import pytest

from rckit.errors import (
    CharacteristicMismatch,
    DivisionByZero,
    NonPrimeCharacteristic,
    OrderCapExceeded,
)
from rckit.field import make_field, parse_field_label

ALL_SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


def test_field_axioms_exhaustive_all_small_fields():
    for p, k in ALL_SMALL_FIELDS:
        f = make_field(p, k)
        q = f.q
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in range(q):
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_canonical_moduli():
    # First monic irreducible in ascending lexicographic coefficient order.
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_gf4_anchor_values():
    # In F_4 with modulus x^2+x+1: indices 0, 1, w=2, w+1=3.
    f = make_field(2, 2)
    w = 2
    assert f.mul(w, w) == 3  # w^2 = w + 1
    assert f.inv(w) == 3
    assert f.frobenius(w) == 3
    assert f.sqrt(3) == w
    assert f.prime_coords(3) == (1, 1)
    assert f.add(w, 1) == 3
    assert f.add(w, w) == 0


def test_multiplicative_group_is_cyclic():
    for p, k in ALL_SMALL_FIELDS:
        f = make_field(p, k)
        q = f.q
        orders = []
        for a in range(1, q):
            x, n = a, 1
            while x != 1:
                x = f.mul(x, a)
                n += 1
            orders.append(n)
        assert max(orders) == q - 1  # a generator exists
        for a in range(q):
            x = a
            for _ in range(k):
                x = f.frobenius(x)
            assert x == a  # a^q == a


def test_frobenius_is_a_field_automorphism():
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        f = make_field(p, k)
        for a in range(f.q):
            for b in range(f.q):
                assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
                assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
        for a in range(p):
            assert f.frobenius(a) == a  # prime subfield is fixed


def test_sqrt_inverts_squaring_in_char_2():
    for k in (1, 2, 3, 4):
        f = make_field(2, k)
        for a in range(f.q):
            assert f.sqrt(f.mul(a, a)) == a
            assert f.mul(f.sqrt(a), f.sqrt(a)) == a
    with pytest.raises(CharacteristicMismatch):
        make_field(3).sqrt(1)


def test_prime_coords_round_trip_and_additivity():
    for p, k in ALL_SMALL_FIELDS:
        f = make_field(p, k)
        for a in range(f.q):
            cs = f.prime_coords(a)
            assert len(cs) == k
            assert f.from_prime_coords(cs) == a
            for b in range(f.q):
                cb = f.prime_coords(b)
                csum = tuple((x + y) % p for x, y in zip(cs, cb))
                assert f.prime_coords(f.add(a, b)) == csum


def test_construction_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1)
    with pytest.raises(OrderCapExceeded):
        make_field(17)
    with pytest.raises(OrderCapExceeded):
        make_field(2, 5)
    with pytest.raises(DivisionByZero):
        make_field(2).inv(0)
    # the cap is configurable
    f32 = make_field(2, 5, max_order=32)
    assert f32.q == 32 and f32.mul(f32.inv(7), 7) == 1


def test_field_identity_is_cached():
    assert make_field(2, 2) is make_field(2, 2)
    assert parse_field_label("2^2") is make_field(2, 2)
    assert parse_field_label("3") is make_field(3)
    assert make_field(3, 2).label == "3^2"
    assert make_field(5).label == "5"
