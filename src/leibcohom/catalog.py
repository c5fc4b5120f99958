"""Built-in algebra constructors and a line-oriented structure file format.

File format (version 1)
-----------------------

A structure file is plain text. ``#`` starts a comment that runs to the
end of the line; blank lines are ignored. The remaining lines are, in
order:

    algebra-file 1
    dim <n>
    basis <label_0> ... <label_{n-1}>
    grading <d_0> ... <d_{n-1}>        (optional)
    product <i> <j> <k> <coeff>        (zero or more)

Each product line declares ``[b_i, b_j] += coeff * b_k``. Coefficients
are nonzero rationals written as ``p`` or ``p/q`` with ``q > 0`` and
``gcd(p, q) = 1``; anything else (``4/2``, ``1/0``, ``0``) is rejected.
Duplicate ``(i, j, k)`` records and out-of-range indices are errors.
:func:`save_algebra` emits a canonical layout (products sorted by
``(i, j, k)``), so saving and reloading reproduces the algebra exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from pathlib import Path

from .algebra import AlgebraStructure, Grading, Bimodule, leibniz_defects

_FORMAT_NAME = "algebra-file"
_FORMAT_VERSION = 1

_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")


class AlgebraFileError(ValueError):
    """Raised on any malformed structure file, with a line diagnostic."""


def sl2() -> AlgebraStructure:
    """The Lie algebra sl2 on the basis (e, f, h).

    Products: [e,f] = h, [e,h] = 2e, [h,f] = 2f and the antisymmetric
    counterparts; written as a (right) Leibniz tensor.
    """
    one = Fraction(1)
    two = Fraction(2)
    tensor = {
        (0, 1): {2: one},
        (1, 0): {2: -one},
        (0, 2): {0: two},
        (2, 0): {0: -two},
        (2, 1): {1: two},
        (1, 2): {1: -two},
    }
    return AlgebraStructure(3, ("e", "f", "h"), tensor)


def simple_leibniz_sl2(m: int) -> tuple[AlgebraStructure, Grading]:
    """The simple Leibniz algebra sl2 + V_m on (e, f, h, x_0..x_m), m >= 2.

    The sl2 block multiplies as in :func:`sl2`; the x-block is
    :func:`irreducible_sl2_module`, hit only from the right:

        [x_k, e] = -k(m+1-k) x_{k-1}    (1 <= k <= m)
        [x_k, f] = x_{k+1}              (0 <= k <= m-1)
        [x_k, h] = (m-2k) x_k           (0 <= k <= m)

    All products with a left factor acting on the x-block from the left
    vanish. The returned grading is 0 on the sl2 block and 1 on the
    x-block.
    """
    if m < 2:
        raise ValueError("the simple family needs m >= 2")
    tensor = dict(sl2().tensor)
    # [x_inp, b] = v x_out for each entry (out, inp) -> v of the action of b
    for b, action in enumerate(irreducible_sl2_module(m).right_action):
        for (out, inp), v in action.items():
            tensor[(3 + inp, b)] = {3 + out: v}
    labels = ("e", "f", "h") + tuple(f"x{k}" for k in range(m + 1))
    algebra = AlgebraStructure(m + 4, labels, tensor)
    grading = Grading((0, 0, 0) + (1,) * (m + 1))
    return algebra, grading


def irreducible_sl2_module(m: int) -> Bimodule:
    """The (m+1)-dimensional irreducible sl2 module as a bimodule.

    Right actions follow the same weight-basis table as the x-block of
    :func:`simple_leibniz_sl2`; all left actions are zero, so the three
    bimodule axioms reduce to the right Lie module axiom.
    """
    if m < 0:
        raise ValueError("module weight m must be nonnegative")
    dim = m + 1
    r_e: dict[tuple[int, int], Fraction] = {}
    r_f: dict[tuple[int, int], Fraction] = {}
    r_h: dict[tuple[int, int], Fraction] = {}
    for k in range(dim):
        if k >= 1:
            r_e[(k - 1, k)] = Fraction(-k * (m + 1 - k))
        if k <= m - 1:
            r_f[(k + 1, k)] = Fraction(1)
        if m != 2 * k:
            r_h[(k, k)] = Fraction(m - 2 * k)
    zero: dict[tuple[int, int], Fraction] = {}
    return Bimodule(3, dim, (dict(zero), dict(zero), dict(zero)), (r_e, r_f, r_h))


def lie_as_leibniz(algebra: AlgebraStructure) -> AlgebraStructure:
    """Check that a tensor is a Lie algebra and return it unchanged.

    Requires an antisymmetric bracket satisfying the Leibniz identity;
    for antisymmetric brackets that identity is the Jacobi identity.
    """
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            back = {t: -c for t, c in algebra.product(j, i).items()}
            if algebra.product(i, j) != back:
                raise ValueError(f"bracket is not antisymmetric at ({i}, {j})")
    defects = leibniz_defects(algebra)
    if defects:
        first = defects[0]
        raise ValueError(
            f"Jacobi identity fails at basis triple {first.triple}"
        )
    return algebra


def direct_sum(a: AlgebraStructure, b: AlgebraStructure) -> AlgebraStructure:
    """Block-diagonal sum; all cross products vanish. Labels are kept
    as-is, so summands with overlapping label sets stay distinguishable
    only by index."""
    off = a.dim
    tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), vec in a.tensor.items():
        tensor[(i, j)] = dict(vec)
    for (i, j), vec in b.tensor.items():
        tensor[(i + off, j + off)] = {t + off: c for t, c in vec.items()}
    return AlgebraStructure(a.dim + b.dim, a.basis_labels + b.basis_labels, tensor)


def _parse_coeff(token: str, where: str) -> Fraction:
    if not _COEFF_RE.match(token):
        raise AlgebraFileError(f"{where}: malformed coefficient {token!r}")
    if "/" in token:
        num_s, den_s = token.split("/")
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise AlgebraFileError(f"{where}: zero denominator in {token!r}")
        if gcd(num, den) != 1:
            raise AlgebraFileError(f"{where}: {token!r} is not in lowest terms")
    else:
        num, den = int(token), 1
    if num == 0:
        raise AlgebraFileError(f"{where}: zero coefficient records are not allowed")
    return Fraction(num, den)


def _format_coeff(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def loads_algebra(text: str) -> tuple[AlgebraStructure, Grading | None]:
    """Parse a structure file from a string; see the module docstring."""
    lines = list(_content_lines(text))
    pos = 0

    def take(expect: str, count: int | None = None):
        nonlocal pos
        if pos >= len(lines):
            raise AlgebraFileError(f"unexpected end of file, wanted {expect!r}")
        lineno, tokens = lines[pos]
        if tokens[0] != expect:
            raise AlgebraFileError(
                f"line {lineno}: expected {expect!r}, found {tokens[0]!r}"
            )
        if count is not None and len(tokens) != count + 1:
            raise AlgebraFileError(
                f"line {lineno}: {expect!r} needs {count} fields"
            )
        pos += 1
        return lineno, tokens[1:]

    lineno, fields = take(_FORMAT_NAME, 1)
    if fields[0] != str(_FORMAT_VERSION):
        raise AlgebraFileError(f"line {lineno}: unsupported format version {fields[0]!r}")
    lineno, fields = take("dim", 1)
    try:
        dim = int(fields[0])
    except ValueError:
        raise AlgebraFileError(f"line {lineno}: dimension is not an integer") from None
    if dim < 0:
        raise AlgebraFileError(f"line {lineno}: negative dimension")
    lineno, labels = take("basis", dim)

    grading = None
    if pos < len(lines) and lines[pos][1][0] == "grading":
        lineno, fields = take("grading", dim)
        try:
            grading = Grading(tuple(int(t) for t in fields))
        except ValueError:
            raise AlgebraFileError(f"line {lineno}: grading degrees must be integers") from None

    tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int, int]] = set()
    while pos < len(lines):
        lineno, fields = take("product", 4)
        where = f"line {lineno}"
        try:
            i, j, k = (int(t) for t in fields[:3])
        except ValueError:
            raise AlgebraFileError(f"{where}: product indices must be integers") from None
        for idx in (i, j, k):
            if not 0 <= idx < dim:
                raise AlgebraFileError(f"{where}: index {idx} exceeds dimension {dim}")
        if (i, j, k) in seen:
            raise AlgebraFileError(f"{where}: duplicate product record ({i}, {j}, {k})")
        seen.add((i, j, k))
        tensor.setdefault((i, j), {})[k] = _parse_coeff(fields[3], where)

    return AlgebraStructure(dim, tuple(labels), tensor), grading


def dumps_algebra(algebra: AlgebraStructure, grading: Grading | None = None) -> str:
    """Canonical text form; loading it back reproduces the inputs exactly."""
    for label in algebra.basis_labels:
        if not label or any(ch.isspace() for ch in label) or "#" in label:
            raise ValueError(f"label {label!r} cannot be written to a structure file")
    out = [f"{_FORMAT_NAME} {_FORMAT_VERSION}", f"dim {algebra.dim}"]
    out.append("basis " + " ".join(algebra.basis_labels))
    if grading is not None:
        if len(grading.degrees) != algebra.dim:
            raise ValueError("grading length does not match the algebra")
        out.append("grading " + " ".join(str(d) for d in grading.degrees))
    records = []
    for (i, j), vec in algebra.tensor.items():
        for k, c in vec.items():
            records.append((i, j, k, c))
    records.sort(key=lambda rec: rec[:3])
    for i, j, k, c in records:
        out.append(f"product {i} {j} {k} {_format_coeff(c)}")
    return "\n".join(out) + "\n"


def load_algebra(path) -> tuple[AlgebraStructure, Grading | None]:
    return loads_algebra(Path(path).read_text())


def save_algebra(algebra: AlgebraStructure, grading: Grading | None, path) -> None:
    Path(path).write_text(dumps_algebra(algebra, grading))
