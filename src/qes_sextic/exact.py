"""Exact arithmetic substrate: rationals, polynomials in t, dense matrices.

Every result of the perturbation recursion is either an
arbitrary-precision rational (``fractions.Fraction``) or a dense univariate
polynomial in the dimensionless coupling t with rational coefficients
(:class:`TPoly`).  :class:`ExactMatrix`, square and dense with
:class:`TPoly` entries (degree 0 for integer and rational matrices),
holds the dense checks, in the package and the tests' references, which
wrap the int Kac matrices of :mod:`kac`, and the W of ``SeriesResult.w``.
The recursion itself runs on ints, 2^o times the coefficients in t^2 at
order o, and builds no :class:`TPoly`: its two readers build one for each
result entry, ``perturbation_series`` for eps and ``SeriesResult.w`` for W.

No floating point enters these types, and none leaves them: no method
converts to float.  Every :class:`TPoly`, given or computed, is built by
its one constructor, which passes each coefficient through
``model.as_rational`` and so rejects ``float`` outright; a scalar operand
of the arithmetic enters through ``TPoly.constant``.  That is what makes
the no-rounding-error guarantee checkable rather than aspirational; the
series meets float64 only in ``rspt.energy_series``.

Serialization: a rational is the string ``"num/den"`` (just ``"num"`` when
the denominator is 1, i.e. exactly ``str(Fraction)``); a polynomial is the
ordered list of such strings, index = power of t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .model import Scalar, as_rational


class TPoly:
    """Dense polynomial in the coupling t over the rationals.

    Coefficients are stored lowest power first with trailing zeros
    stripped; the zero polynomial stores an empty tuple.  Instances are
    immutable and hashable.

    ``TPoly(coeffs)`` is the one constructor: it validates every
    coefficient, of a given polynomial and of an arithmetic result alike.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def zero(cls) -> "TPoly":
        return cls()

    @classmethod
    def one(cls) -> "TPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "TPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Scalar) -> "TPoly":
        return cls((value,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == TPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it must hash as that scalar
        if self.degree <= 0:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __add__(self, other) -> "TPoly":
        other = _as_tpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "TPoly":
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        return _as_tpoly(other) - self

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            other = TPoly.constant(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "TPoly":
        c = as_rational(scalar)
        if c == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return self * Fraction(c.denominator, c.numerator)

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact value at a rational point (Horner)."""
        x = as_rational(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"TPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_tpoly(value) -> TPoly:
    if isinstance(value, TPoly):
        return value
    return TPoly.constant(value)


class ExactMatrix:
    """Dense square matrix with :class:`TPoly` entries.

    Supports exact addition, subtraction, matrix product (``@``) and
    scaling by rationals or polynomials.  Instances are immutable.
    """

    __slots__ = ("n", "rows")

    n: int
    rows: tuple[tuple[TPoly, ...], ...]

    def __init__(self, rows: Iterable[Iterable]):
        packed = tuple(tuple(_as_tpoly(e) for e in row) for row in rows)
        n = len(packed)
        if n == 0 or any(len(row) != n for row in packed):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", packed)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExactMatrix":
        return cls.tridiagonal((), values, ())

    @classmethod
    def tridiagonal(
        cls, lower: Sequence, diag: Sequence, upper: Sequence
    ) -> "ExactMatrix":
        """The matrix with sub-, main and superdiagonal lower, diag, upper."""
        n = len(diag)
        z = TPoly.zero()
        rows = [[z] * n for _ in range(n)]
        for i, v in enumerate(diag):
            rows[i][i] = v
        for i, (lo, up) in enumerate(zip(lower, upper)):
            rows[i + 1][i] = lo
            rows[i][i + 1] = up
        return cls(rows)

    def __getitem__(self, index: tuple[int, int]) -> TPoly:
        i, j = index
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def _require_same_size(self, other: "ExactMatrix"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_size(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-e for e in row] for row in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_size(other)
        n = self.n
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = TPoly.zero()
                for a, b in zip(row, col):
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(out)

    def __mul__(self, scalar) -> "ExactMatrix":
        factor = _as_tpoly(scalar)
        return ExactMatrix([[e * factor for e in row] for row in self.rows])

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows
        )
        return f"ExactMatrix[{body}]"
