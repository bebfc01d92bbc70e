"""Exact arithmetic for the supported bounded commutative residuated lattices.

Carriers are exact: rationals in [0, 1] (``fractions.Fraction``), symbolic
powers of a fixed base ``a`` in (0, 1) for the power-chain algebra, and plain
indices for finite-table algebras.  Every operation is total on its carrier
and returns exact results; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import lcm
from typing import Any

__all__ = [
    "CarrierError", "ResourceLimitError", "ExpValue", "EXP_ZERO", "EXP_ONE",
    "Algebra", "StdMV", "StdGodel", "StdProduct", "MVn", "ExpChain",
    "FiniteTable", "Violation", "ValidationReport", "validate_finite_algebra",
    "mv_chain_tables", "op_apply", "power", "leq",
    "algebra_to_json", "algebra_from_json", "value_to_json", "value_from_json",
]

Value = Any  # Fraction | ExpValue | int, depending on the algebra

# the rational bounds, shared: a Fraction is immutable
_Q0 = Fraction(0)
_Q1 = Fraction(1)


def _same(v):
    return v


class CarrierError(ValueError):
    """Value does not belong to the algebra's carrier."""


class ResourceLimitError(RuntimeError):
    """A configurable resource guard tripped."""


@dataclass(frozen=True)
class ExpValue:
    """Element of the power chain: ``a^exponent``, or the bottom (``None``).

    The base ``a`` is a formal element of (0, 1), never fixed numerically;
    the order is reversed on exponents: bottom < a^t < a^s < a^0 = 1 for
    t > s > 0.
    """

    exponent: Fraction | None

    def __post_init__(self):
        e = self.exponent
        if e is None:
            return
        if type(e) is not Fraction:
            if isinstance(e, (float, bool)):
                raise CarrierError(f"power-chain exponent {e!r} is not an exact rational")
            e = Fraction(e)
            object.__setattr__(self, "exponent", e)
        if e.numerator < 0:
            raise CarrierError("power-chain exponent must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __repr__(self):
        return "ExpValue(zero)" if self.is_zero else f"ExpValue(a^{self.exponent})"


EXP_ZERO = ExpValue(None)
EXP_ONE = ExpValue(Fraction(0))


class Algebra:
    """Operation interface shared by all supported algebras.

    The binary operations assume carrier-valid arguments; ``require`` is the
    checked entry point used by :func:`op_apply` and the model loaders.
    """

    kind: str

    @property
    def zero(self) -> Value:
        raise NotImplementedError

    @property
    def one(self) -> Value:
        raise NotImplementedError

    def require(self, v: Value) -> Value:
        raise NotImplementedError

    def leq(self, a: Value, b: Value) -> bool:
        raise NotImplementedError

    def meet(self, a: Value, b: Value) -> Value:
        return a if self.leq(a, b) else b

    def join(self, a: Value, b: Value) -> Value:
        return b if self.leq(a, b) else a

    def times(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def residuum(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def power(self, a: Value, n: int) -> Value:
        """``a^n`` for unbounded ``n >= 0``; ``a^0`` is the unit."""
        if n < 0:
            raise ValueError("negative power")
        return self._power(a, n) if n else self.one

    def _power(self, a: Value, n: int) -> Value:
        """``a^n`` for ``n >= 1``: here repeated ``times``."""
        out = a
        for _ in range(n - 1):
            nxt = self.times(out, a)
            if nxt == out:
                return out  # powers are non-increasing, so this is a fixpoint
            out = nxt
        return out

    def _carrier(self, values):
        """``encode, decode, meet, join, times, residuum, zero, one`` that
        ``kripke.evaluate_all`` computes with: here the algebra's own."""
        return (_same, _same, self.meet, self.join, self.times, self.residuum,
                self.zero, self.one)

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"{type(self).__name__}()"


class _RationalAlgebra(Algebra):
    """Shared carrier logic for algebras over rationals in [0, 1]."""

    @property
    def zero(self) -> Fraction:
        return _Q0

    @property
    def one(self) -> Fraction:
        return _Q1

    def require(self, v: Value) -> Fraction:
        if type(v) is not Fraction:
            if isinstance(v, float):
                raise CarrierError("floats are not exact; use Fraction")
            if isinstance(v, bool):
                raise CarrierError(f"{v!r} is not an exact rational; use 0 or 1")
            v = Fraction(v)
        if not 0 <= v.numerator <= v.denominator:
            raise CarrierError(f"value {v} outside [0, 1]")
        return v

    def leq(self, a: Fraction, b: Fraction) -> bool:
        return a <= b

    def meet(self, a, b):
        return min(a, b)

    def join(self, a, b):
        return max(a, b)


class StdMV(_RationalAlgebra):
    """[0, 1] with a*b = max(0, a+b-1) and a->b = min(1, 1-a+b)."""

    kind = "std-mv"

    def times(self, a, b):
        s = a + b
        return s - 1 if s > 1 else _Q0

    def residuum(self, a, b):
        return 1 - a + b if a > b else _Q1

    def _power(self, a, n):
        a, d = a.numerator, a.denominator
        return Fraction(max(0, d - n * (d - a)), d)

    def _carrier(self, values):
        # ints n for n/d: ``values`` generate the chain {0, 1/d, ..., 1}
        d = lcm(*{v.denominator for v in values})
        return (lambda v: v.numerator * (d // v.denominator),
                lambda n: Fraction(n, d), min, max,
                lambda a, b: a + b - d if a + b > d else 0,
                lambda a, b: d - a + b if a > b else d, 0, d)


class StdGodel(_RationalAlgebra):
    """[0, 1] with a*b = min(a, b) and a->b = 1 if a <= b else b."""

    kind = "std-godel"

    def times(self, a, b):
        return min(a, b)

    def residuum(self, a, b):
        return _Q1 if a <= b else b

    def _power(self, a, n):
        return a


class StdProduct(_RationalAlgebra):
    """Rationals in [0, 1] with ordinary product; a->b = 1 if a <= b else b/a.

    Exact exponentiation grows bit length linearly in the exponent, so large
    powers are refused; the power-chain algebra handles those symbolically.
    """

    kind = "std-product"

    def __init__(self, power_cap: int = 64):
        self.power_cap = power_cap

    def times(self, a, b):
        return a * b

    def residuum(self, a, b):
        return _Q1 if a <= b else b / a

    def _power(self, a, n):
        if n > self.power_cap:
            raise ResourceLimitError(
                f"product power {n} above cap {self.power_cap}; "
                "use the power-chain algebra for large exponents"
            )
        return a ** n


class MVn(_RationalAlgebra):
    """The finite subalgebra {0, 1/(n-1), ..., 1} of the standard MV algebra."""

    kind = "mv-n"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("MV chain needs at least 2 elements")
        self.n = n

    def require(self, v):
        v = super().require(v)
        if (self.n - 1) % v.denominator:
            raise CarrierError(f"{v} is not a multiple of 1/{self.n - 1}")
        return v

    @property
    def size(self) -> int:
        return self.n

    def carrier(self) -> tuple[Fraction, ...]:
        """The elements k/(n-1) in index order; built once for each n."""
        return _mv_carrier(self.n)

    def tables(self) -> dict:
        """Operation tables over element indices, index k standing for
        ``carrier()[k]``, with tuple rows; built once for each n."""
        return dict(_mv_tables(self.n))

    times = StdMV.times
    residuum = StdMV.residuum
    _carrier = StdMV._carrier

    def __repr__(self):
        return f"MVn({self.n})"

    def __hash__(self):
        return hash((self.kind, self.n))


class ExpChain(Algebra):
    """The subalgebra {0} + {a^t : t rational >= 0} of the standard product
    algebra, represented by exponents of the formal base ``a``."""

    kind = "exp-chain"

    @property
    def zero(self) -> ExpValue:
        return EXP_ZERO

    @property
    def one(self) -> ExpValue:
        return EXP_ONE

    def require(self, v):
        if not isinstance(v, ExpValue):
            raise CarrierError(f"{v!r} is not a power-chain value")
        return v

    def leq(self, a: ExpValue, b: ExpValue) -> bool:
        if a.is_zero:
            return True
        if b.is_zero:
            return False
        return a.exponent >= b.exponent

    def times(self, a, b):
        if a.is_zero or b.is_zero:
            return EXP_ZERO
        return ExpValue(a.exponent + b.exponent)

    def residuum(self, a, b):
        if self.leq(a, b):
            return EXP_ONE
        if b.is_zero:
            return EXP_ZERO
        return ExpValue(b.exponent - a.exponent)

    def _power(self, a, n):
        return EXP_ZERO if a.is_zero else ExpValue(n * a.exponent)

    def _carrier(self, values):
        # ints n for a^(n/d), in reverse order, and None for the bottom
        d = lcm(*{v.exponent.denominator for v in values if not v.is_zero})

        def encode(v):
            e = v.exponent
            return None if e is None else e.numerator * (d // e.denominator)
        return (encode,
                lambda n: EXP_ZERO if n is None else ExpValue(Fraction(n, d)),
                lambda a, b: None if a is None or b is None else max(a, b),
                lambda a, b: b if a is None else a if b is None else min(a, b),
                lambda a, b: None if a is None or b is None else a + b,
                lambda a, b: (None if b is None and a is not None
                              else 0 if a is None or a >= b else b - a),
                None, 0)


@dataclass(frozen=True)
class Violation:
    law: str
    elements: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{v.law} at {v.elements}: {v.detail}" for v in self.violations]
        return "\n".join(lines)


def _is_index(v, size: int) -> bool:
    """Is ``v`` an element index below ``size``?  A bool is not one."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < size


def validate_finite_algebra(size: int, meet, join, times, residuum,
                            zero: int, one: int) -> ValidationReport:
    """Exhaustively check the bounded-lattice, monoid and residuation laws.

    Tables are ``size x size`` nested sequences over indices ``0..size-1``;
    every violated law instance is reported.
    """
    if not isinstance(size, int) or size < 1:
        raise ValueError(f"size {size!r} is not a positive integer")
    for name, table in (("meet", meet), ("join", join),
                        ("times", times), ("residuum", residuum)):
        if (not isinstance(table, (list, tuple)) or len(table) != size
                or any(not isinstance(row, (list, tuple)) or len(row) != size
                       for row in table)):
            raise ValueError(f"{name} table is not {size}x{size}")
        for row in table:
            for v in row:
                if not _is_index(v, size):
                    raise ValueError(f"{name} table entry {v!r} out of range")
    if not all(_is_index(e, size) for e in (zero, one)):
        raise ValueError("designated elements out of range")

    bad: list[Violation] = []
    rng = range(size)

    def le(a, b):
        return meet[a][b] == a

    for a in rng:
        if meet[a][a] != a:
            bad.append(Violation("meet-idempotent", (a,), f"{a} /\\ {a} = {meet[a][a]}"))
        if join[a][a] != a:
            bad.append(Violation("join-idempotent", (a,), f"{a} \\/ {a} = {join[a][a]}"))
        if times[a][one] != a:
            bad.append(Violation("unit", (a,), f"{a} * 1 = {times[a][one]}"))
        if not le(zero, a):
            bad.append(Violation("bottom", (a,), f"0 is not below {a}"))
        if not le(a, one):
            bad.append(Violation("top", (a,), f"{a} is not below 1"))
    for a in rng:
        for b in rng:
            if meet[a][b] != meet[b][a]:
                bad.append(Violation("meet-commutative", (a, b), ""))
            if join[a][b] != join[b][a]:
                bad.append(Violation("join-commutative", (a, b), ""))
            if times[a][b] != times[b][a]:
                bad.append(Violation("times-commutative", (a, b), ""))
            if meet[a][join[a][b]] != a:
                bad.append(Violation("absorption", (a, b), f"{a} /\\ ({a} \\/ {b}) != {a}"))
            if join[a][meet[a][b]] != a:
                bad.append(Violation("absorption", (a, b), f"{a} \\/ ({a} /\\ {b}) != {a}"))
    for a in rng:
        for b in rng:
            for c in rng:
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    bad.append(Violation("meet-associative", (a, b, c), ""))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    bad.append(Violation("join-associative", (a, b, c), ""))
                if times[times[a][b]][c] != times[a][times[b][c]]:
                    bad.append(Violation("times-associative", (a, b, c), ""))
                if le(times[a][b], c) != le(a, residuum[b][c]):
                    bad.append(Violation(
                        "residuation", (a, b, c),
                        f"{a}*{b} <= {c} is {le(times[a][b], c)} but "
                        f"{a} <= {b}->{c} is {le(a, residuum[b][c])}"))
    return ValidationReport(tuple(bad))


class FiniteTable(Algebra):
    """Finite algebra given by explicit operation tables over element indices.

    The tables are exhaustively validated at construction.
    """

    kind = "finite-table"

    def __init__(self, size: int, meet, join, times, residuum,
                 zero: int = 0, one: int | None = None):
        if one is None:
            one = size - 1
        report = validate_finite_algebra(size, meet, join, times, residuum, zero, one)
        if not report.ok:
            raise ValueError(f"invalid finite algebra:\n{report}")
        self.size = size
        self.meet_table = tuple(tuple(row) for row in meet)
        self.join_table = tuple(tuple(row) for row in join)
        self.times_table = tuple(tuple(row) for row in times)
        self.residuum_table = tuple(tuple(row) for row in residuum)
        self.zero_index = zero
        self.one_index = one

    @property
    def zero(self) -> int:
        return self.zero_index

    @property
    def one(self) -> int:
        return self.one_index

    def require(self, v):
        if not _is_index(v, self.size):
            raise CarrierError(f"{v!r} is not an element index below {self.size}")
        return v

    def carrier(self) -> tuple[int, ...]:
        return tuple(range(self.size))

    def tables(self) -> dict:
        """Operation tables in the ``mv_chain_tables`` shape, with tuple rows."""
        return {"size": self.size, "meet": self.meet_table,
                "join": self.join_table, "times": self.times_table,
                "residuum": self.residuum_table,
                "zero": self.zero_index, "one": self.one_index}

    def leq(self, a, b):
        return self.meet_table[a][b] == a

    def meet(self, a, b):
        return self.meet_table[a][b]

    def join(self, a, b):
        return self.join_table[a][b]

    def times(self, a, b):
        return self.times_table[a][b]

    def residuum(self, a, b):
        return self.residuum_table[a][b]

    def __repr__(self):
        return f"FiniteTable(size={self.size})"

    def __hash__(self):
        return hash((self.kind, self.size, self.times_table))


def mv_chain_tables(n: int) -> dict:
    """Operation tables of the n-element MV chain, for FiniteTable use."""
    m = n - 1
    rng = range(n)
    return {
        "size": n,
        "meet": [[min(a, b) for b in rng] for a in rng],
        "join": [[max(a, b) for b in rng] for a in rng],
        "times": [[max(0, a + b - m) for b in rng] for a in rng],
        "residuum": [[min(m, m - a + b) for b in rng] for a in rng],
        "zero": 0,
        "one": m,
    }


@cache
def _mv_carrier(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, n - 1) for k in range(n))


@cache
def _mv_tables(n: int) -> dict:
    t = mv_chain_tables(n)
    return t | {op: tuple(map(tuple, t[op])) for op in _OPS}


_OPS = ("meet", "join", "times", "residuum")


def op_apply(alg: Algebra, op: str, a: Value, b: Value) -> Value:
    """Checked application of a lattice/monoid/residuum operation."""
    if op not in _OPS:
        raise ValueError(f"unknown operation {op!r}; expected one of {_OPS}")
    a = alg.require(a)
    b = alg.require(b)
    return getattr(alg, op)(a, b)


def power(alg: Algebra, a: Value, n: int) -> Value:
    return alg.power(alg.require(a), n)


def leq(alg: Algebra, a: Value, b: Value) -> bool:
    return alg.leq(alg.require(a), alg.require(b))


def value_to_json(alg: Algebra, v: Value):
    if isinstance(alg, ExpChain):
        v = alg.require(v)
        return "zero" if v.is_zero else {"pow": str(v.exponent)}
    if isinstance(alg, FiniteTable):
        return alg.require(v)
    return str(alg.require(v))


def _fraction(obj) -> Fraction:
    """A rational from JSON: a string such as ``"3/4"``, or an integer;
    never a float, which is not exact, nor a bool."""
    if isinstance(obj, (str, int)) and not isinstance(obj, bool):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            pass
    raise CarrierError(f"{obj!r} is not an exact rational")


def int_from_json(obj, what: str) -> int:
    """``obj`` as an int: a JSON integer or a decimal string, never a bool
    or a float; anything else raises ``ValueError`` naming ``what``."""
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        try:
            return int(obj)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {obj!r}")


def value_from_json(alg: Algebra, obj) -> Value:
    if isinstance(alg, ExpChain):
        if obj == "zero":
            return EXP_ZERO
        if isinstance(obj, dict) and set(obj) == {"pow"}:
            return ExpValue(_fraction(obj["pow"]))
        raise CarrierError(f"bad power-chain value: {obj!r}")
    if isinstance(alg, FiniteTable):
        return alg.require(obj)
    if not isinstance(obj, str):
        raise CarrierError(f"rational values are serialized as strings, got {obj!r}")
    return alg.require(_fraction(obj))


def algebra_to_json(alg: Algebra) -> dict:
    if isinstance(alg, MVn):
        return {"kind": "mv-n", "n": alg.n}
    if isinstance(alg, FiniteTable):
        return {"kind": "finite-table", "tables": alg.tables()}
    return {"kind": alg.kind}


def algebra_from_json(obj: dict) -> Algebra:
    if not isinstance(obj, dict):
        raise ValueError(f"an algebra must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "std-mv":
        return StdMV()
    if kind == "std-godel":
        return StdGodel()
    if kind == "std-product":
        return StdProduct()
    if kind == "exp-chain":
        return ExpChain()
    if kind == "mv-n":
        return MVn(int_from_json(obj.get("n"), "mv-n's 'n'"))
    if kind == "finite-table":
        t = obj.get("tables")
        if not isinstance(t, dict):
            raise ValueError("a finite-table algebra needs a 'tables' object")
        size = int_from_json(t.get("size"), "the tables' 'size'")
        return FiniteTable(size, t.get("meet"), t.get("join"), t.get("times"),
                           t.get("residuum"), t.get("zero", 0),
                           t.get("one", size - 1))
    raise ValueError(f"unknown algebra kind: {kind!r}")
