"""Arithmetic in small finite fields F_{p^k} (q <= 16) via dense lookup tables.

Elements are integer indices 0..q-1.  The index sum(c_t * p^t) stands for the
residue class of the polynomial sum(c_t * x^t) in F_p[x] / (modulus), so index
0 is the zero element, index 1 the unit, and for extension fields index p is
the class of x.  All arithmetic is table lookups after construction; the
tables for each (p, k) are built once and cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import (
    CharacteristicMismatch,
    DivisionByZero,
    NonPrimeCharacteristic,
    OrderCapExceeded,
)

DEFAULT_ORDER_CAP = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over F_p (coefficient tuples, lowest degree first) --


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic polynomial m."""
    a = list(a)
    deg_m = len(m) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg_m + 1):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * m[j]) % p
    return _poly_trim(tuple(a))


def _poly_is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for lower in product(range(p), repeat=d):
            divisor = lower + (1,)
            if not _poly_mod(m, divisor, p):
                return False
    return True


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k, scanning coefficient tuples
    (c_0, ..., c_{k-1}) in ascending lexicographic order."""
    for lower in product(range(p), repeat=k):
        m = lower + (1,)
        if _poly_is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """Dense-table arithmetic for one finite field F_{p^k}.

    Do not construct directly; use make_field so instances are cached and
    field identity can be tested with `is`.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "add_table",
        "mul_table",
        "neg_table",
        "inv_table",
        "frob_table",
        "sqrt_table",
        "power_basis",
    )

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _canonical_modulus(p, k)
        q = self.q
        # 1, x, ..., x^{k-1} over F_p: x^t is the index with the single prime
        # coordinate 1 at position t, which is p^t
        self.power_basis = tuple(p**t for t in range(k))

        def times(a, b):  # the reduced product, padded to k digits
            r = _poly_mod(_poly_mul(a, b, p), self.modulus, p)
            return r + (0,) * (k - len(r))

        polys = [self.prime_coords(i) for i in range(q)]
        index = self.from_prime_coords
        self.add_table = [[index([x + y for x, y in zip(a, b)]) for b in polys] for a in polys]
        self.mul_table = [[index(times(a, b)) for b in polys] for a in polys]
        self.neg_table = [index([-x for x in a]) for a in polys]
        inv = [0] * q
        for a in range(1, q):
            row = self.mul_table[a]
            inv[a] = row.index(1)
        self.inv_table = inv
        frob = []
        for a in range(q):
            acc = 1
            for _ in range(p):
                acc = self.mul_table[acc][a]
            frob.append(acc)
        self.frob_table = frob
        if p == 2:
            sqrt = [0] * q
            for a in range(q):
                sqrt[self.frob_table[a]] = a
            self.sqrt_table = sqrt
        else:
            self.sqrt_table = None
        if q <= 16:
            self._check_axioms()

    # -- index-level arithmetic (hot-path API) --

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in F_{self.q}")
        return self.inv_table[a]

    def frobenius(self, a: int) -> int:
        return self.frob_table[a]

    def sqrt(self, a: int) -> int:
        if self.p != 2:
            raise CharacteristicMismatch("square roots table only in characteristic 2")
        return self.sqrt_table[a]

    def prime_coords(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_prime_coords(self, coords) -> int:
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coords)}")
        out = 0
        for t in range(self.k - 1, -1, -1):
            c = coords[t] % self.p
            out = out * self.p + c
        return out

    @property
    def label(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __repr__(self) -> str:
        return f"FieldSpec(F_{self.q})"

    def __reduce__(self):
        # Pickle as a make_field call so worker processes share cached tables.
        return (make_field, (self.p, self.k))

    def _check_axioms(self) -> None:
        q, add, mul = self.q, self.add_table, self.mul_table
        for a in range(q):
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError("identity axiom failed")
            if add[a][self.neg_table[a]] != 0:
                raise AssertionError("additive inverse failed")
            if a and mul[a][self.inv_table[a]] != 1:
                raise AssertionError("multiplicative inverse failed")
            for b in range(q):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise AssertionError("commutativity failed")
                for c in range(q):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AssertionError("additive associativity failed")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AssertionError("multiplicative associativity failed")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AssertionError("distributivity failed")


@lru_cache(maxsize=None)
def _cached_field(p: int, k: int) -> FieldSpec:
    return FieldSpec(p, k)


def make_field(p: int, k: int = 1, max_order: int = DEFAULT_ORDER_CAP) -> FieldSpec:
    """Build (or fetch from cache) the field F_{p^k} with canonical modulus."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if k < 1:
        raise OrderCapExceeded(f"extension degree must be >= 1, got {k}")
    if p**k > max_order:
        raise OrderCapExceeded(f"field order {p**k} exceeds cap {max_order}")
    return _cached_field(p, k)


def parse_field_label(label: str) -> FieldSpec:
    """Parse a designator like "2", "3" or "2^2" into a field."""
    text = label.strip()
    if "^" in text:
        p_str, _, k_str = text.partition("^")
        p, k = int(p_str), int(k_str)
    else:
        p, k = int(text), 1
    return make_field(p, k)
