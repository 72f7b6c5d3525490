"""Exact coefficient arithmetic: integers, rationals, and univariate
Laurent polynomials, plus sparse matrices over any of them.

``Laurent`` is the ring Z[A, A^-1], stored as a dict from exponent to
nonzero integer coefficient.  Printing uses descending exponents with
explicit signs and ``A^k`` syntax (``A`` for exponent 1, a bare integer
for exponent 0), e.g. ``-A^2-A^-2``; ``parse`` accepts the same syntax,
with a sign between terms.  The constructor refuses an exponent or
coefficient that is not an integer.  Each ring operation builds its
result dict once and owns it: an int scales, a one-term operand shifts
and scales, a sum deletes a cancelled term in place, and a longer product
drops its zero sums in one pass.

``Matrix`` stores only nonzero entries.  Entries may be ints, Fractions or
Laurent polynomials; ints mix freely with either of the other two.  A
matrix representing a linear map has ``rows`` the dimension of the target
and ``cols`` the dimension of the source, so composition "f then g" is
``g @ f``, and ``kron`` is the tensor product with the usual row-major
basis ordering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction, "Laurent"]


def is_zero(x: Scalar) -> bool:
    if isinstance(x, Laurent):
        return not x.coeffs
    return x == 0


class Laurent:
    """A Laurent polynomial in one variable A with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                e, k = int(exp), int(c)
                if e != exp or k != c:
                    raise TypeError(f"exponent {exp!r} and coefficient {c!r} must be integers")
                if k:
                    clean[e] = k
        self.coeffs = clean

    @staticmethod
    def _of(coeffs: dict[int, int]) -> "Laurent":
        """Wrap a dict this module built, with int exponents and nonzero
        int coefficients, without checking or copying it."""
        out = object.__new__(Laurent)
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "Laurent":
        return Laurent({exp: coeff})

    @staticmethod
    def promote(x) -> "Laurent":
        if isinstance(x, Laurent):
            return x
        if isinstance(x, int):
            return Laurent._of({0: x} if x else {})
        raise TypeError(f"cannot promote {x!r} to a Laurent polynomial")

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = Laurent.promote(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return Laurent._of(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-Laurent.promote(other))

    def __rsub__(self, other):
        return Laurent.promote(other) - self

    def __mul__(self, other):
        if isinstance(other, int):  # scale; nothing cancels unless other is 0
            return Laurent._of({e: c * other for e, c in self.coeffs.items()} if other else {})
        a, b = self.coeffs, Laurent.promote(other).coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # shift and scale a; nothing cancels
            ((s, k),) = b.items()
            return Laurent._of({e + s: c * k for e, c in a.items()})
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            base = self.inverse_of_unit()
            n = -n
        else:
            base = self
        out = Laurent.one()
        for _ in range(n):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, Fraction) and other.denominator == 1:  # equal to its int
            other = other.numerator
        if isinstance(other, int):
            other = Laurent.promote(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant equals its integer, so hashes as it
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    # -- structure queries ---------------------------------------------------

    def is_unit(self) -> bool:
        """Units of Z[A, A^-1] are the monomials with coefficient +-1."""
        return len(self.coeffs) == 1 and abs(next(iter(self.coeffs.values()))) == 1

    def inverse_of_unit(self) -> "Laurent":
        if not self.is_unit():
            raise ArithmeticError(f"{self} is not a unit of Z[A, A^-1]")
        (exp, c), = self.coeffs.items()
        return Laurent._of({-exp: c})

    def divide_exact(self, divisor) -> "Laurent":
        """The Laurent polynomial q with q * divisor == self, by long division
        from the top.  The divisor's leading coefficient must be +-1; raises
        ArithmeticError when it is not, or when no such q exists."""
        divisor = Laurent.promote(divisor)
        top = divisor.degree()
        if top is None or abs(divisor.coeffs[top]) != 1:
            raise ArithmeticError(f"cannot divide exactly by {divisor}")
        quotient: dict[int, int] = {}
        rest = dict(self.coeffs)
        while rest:
            e = max(rest) - top
            if e < self.valuation() - divisor.valuation():
                raise ArithmeticError(f"{divisor} does not divide {self}")
            c = quotient[e] = rest[e + top] * divisor.coeffs[top]
            for k, v in divisor.coeffs.items():
                rest[e + k] = rest.get(e + k, 0) - c * v
                if not rest[e + k]:
                    del rest[e + k]
        return Laurent._of(quotient)

    def substitute_inverse(self) -> "Laurent":
        """The ring involution A -> A^-1."""
        return Laurent._of({-e: c for e, c in self.coeffs.items()})

    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def valuation(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "A" if exp == 1 else f"A^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    __repr__ = __str__

    _TERM = re.compile(r"([+-]?)(\d*)(A(\^(-?\d+))?)?")

    @staticmethod
    def parse(text: str) -> "Laurent":
        if re.search(r"\d +\d", text):  # "A^-1 2" is no A^-12
            raise ValueError(f"a space splits a number in {text!r}")
        s = text.replace(" ", "")
        if s in ("", "0"):
            return Laurent.zero()
        out: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = Laurent._TERM.match(s, pos)
            if not m or m.end() == pos or (pos and not m.group(1)):  # terms after the first need a sign
                raise ValueError(f"cannot parse Laurent polynomial {text!r} at {pos}")
            sign, digits, var, _, exp = m.groups()
            coeff = int(digits) if digits else 1
            if sign == "-":
                coeff = -coeff
            if var is None:
                e = 0
                if not digits:
                    raise ValueError(f"empty term in {text!r}")
            else:
                e = int(exp) if exp is not None else 1
            out[e] = out.get(e, 0) + coeff
            pos = m.end()
        return Laurent(out)


class Matrix:
    """A sparse exact matrix; absent entries are zero."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Scalar] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            for (i, j), v in entries.items():
                if not 0 <= i < rows or not 0 <= j < cols:
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if not is_zero(v):
                    self.entries[(i, j)] = v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def from_rows(data: Iterable[Iterable[Scalar]]) -> "Matrix":
        grid = [list(row) for row in data]
        rows = len(grid)
        cols = len(grid[0]) if grid else 0
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged rows")
        return Matrix(rows, cols, {(i, j): grid[i][j] for i in range(rows) for j in range(cols)})

    @staticmethod
    def column(values: Iterable[Scalar]) -> "Matrix":
        vals = list(values)
        return Matrix(len(vals), 1, {(i, 0): v for i, v in enumerate(vals)})

    @staticmethod
    def row(values: Iterable[Scalar]) -> "Matrix":
        vals = list(values)
        return Matrix(1, len(vals), {(0, i): v for i, v in enumerate(vals)})

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries.get((i, j), 0)

    def scalar(self) -> Scalar:
        if self.rows != 1 or self.cols != 1:
            raise ValueError(f"{self.rows}x{self.cols} matrix is not a scalar")
        return self.entry(0, 0)

    def to_rows(self) -> list[list[Scalar]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key, 0) + v
            if is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
        return Matrix(self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other (apply other first when matrices
        stand for linear maps)."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], Scalar] = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):  # only matching inner indices
                key = (i, j)
                s = out.get(key, 0) + u * v
                if is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return Matrix(self.rows, other.cols, out)

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def kron(self, other: "Matrix") -> "Matrix":
        out: dict[tuple[int, int], Scalar] = {}
        for (i, j), u in self.entries.items():
            for (k, l), v in other.entries.items():
                out[(i * other.rows + k, j * other.cols + l)] = u * v
        return Matrix(self.rows * other.rows, self.cols * other.cols, out)

    def __eq__(self, other):
        """Equal shapes and entries: no matrix stores a zero, and a constant
        Laurent polynomial equals its integer."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, len(self.entries)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def kron_all(factors: Iterable[Matrix]) -> Matrix:
    """Tensor product of a list of matrices; empty product is the 1x1 identity."""
    out = Matrix.identity(1)
    for f in factors:
        out = out.kron(f)
    return out
