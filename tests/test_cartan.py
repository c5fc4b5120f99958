"""The Cartan homotopy formula of the Leibniz complex, entry for entry on
the coboundary matrices, with theta_x and K_x computed from the structure
constants and the actions alone, never from the column builder.

For a basis element x let K_x contract in the last argument,
(K_x f)(x_1, ..., x_{n-1}) = (-1)^n f(x_1, ..., x_{n-1}, x), and let
theta_x f = [f(..), x] - sum_p f(.., [x_p, x], ..), with the module's
right action. Then

    d^{n-1} K_x + K_x d^n = theta_x   on C^n, n >= 1,

for any bilinear bracket and any actions, Leibniz or not: the terms of
d that do not involve x cancel in pairs. At n = 0, where K_x is 0 on C^0,
it says -[x, m] = [m, x], so it holds for a symmetric bimodule only. The
graded engine certifies the d^2 blocks of nonzero h-weight with it
(x = h, n = 2), so this is the oracle of that certificate's proof.
"""

import random
from fractions import Fraction

import pytest

from leibcohom.algebra import (
    AlgebraStructure,
    adjoint_bimodule,
    leibniz_defects,
    symmetric_bimodule,
)
from leibcohom.catalog import irreducible_sl2_module, simple_leibniz_sl2, sl2
from leibcohom.cochain import coboundary_matrix

F = Fraction


def columns(algebra, module, n):
    """d^n as ``{column: {row: value}}``, flat indices, nonzero columns."""
    return coboundary_matrix(algebra, module, n).columns


def add(acc, key, value):
    cur = acc.get(key, 0) + value
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


def contract(vec, x, n, dl, dm):
    """K_x of an n-cochain ``{flat: value}``: each entry at (a_1, ..., a_n;
    t) with a_n = x, times (-1)^n, at (a_1, ..., a_{n-1}; t)."""
    out = {}
    if n:
        for flat, v in vec.items():
            rest, t = divmod(flat, dm)
            args, last = divmod(rest, dl)
            if last == x:
                add(out, args * dm + t, (-1) ** n * v)
    return out


def theta(algebra, module, x, n, flat):
    """theta_x of the basis n-cochain (i_1, ..., i_n; k) at ``flat``: the
    right action of x on m_k at (i_1, ..., i_n; out), less c_{a x}^{i_p} at
    (i_1, ..., a, ..., i_n; k) for each position p and each a."""
    dl, dm = algebra.dim, module.module_dim
    rest, k = divmod(flat, dm)
    args = []
    for _ in range(n):
        rest, a = divmod(rest, dl)
        args.insert(0, a)
    out = {}
    for (o, inp), v in module.right_action[x].items():
        if inp == k:
            add(out, flat - k + o, v)
    for p in range(n):
        step = dl ** (n - 1 - p) * dm
        for a in range(dl):
            c = algebra.tensor.get((a, x), {}).get(args[p], 0)
            if c:
                add(out, flat + (a - args[p]) * step, -c)
    return out


def defects(algebra, module, n):
    """The (x, column) at which d^{n-1} K_x + K_x d^n differs from theta_x,
    over every basis x and every basis n-cochain."""
    dl, dm = algebra.dim, module.module_dim
    lower = columns(algebra, module, n - 1) if n else {}
    upper = columns(algebra, module, n)
    bad = []
    for x in range(dl):
        for flat in range(dl**n * dm):
            got = {}
            for r, v in contract({flat: F(1)}, x, n, dl, dm).items():
                for row, w in lower.get(r, {}).items():
                    add(got, row, v * w)
            for r, v in contract(upper.get(flat, {}), x, n + 1, dl, dm).items():
                add(got, r, v)
            if got != theta(algebra, module, x, n, flat):
                bad.append((x, flat))
    return bad


def random_tensor(rng):
    """A seeded random algebra of dimension 1 to 4 with small rational
    structure constants, Leibniz or not."""
    n = rng.randint(1, 4)
    tensor = {
        (i, j): {k: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
                 for k in range(n) if rng.random() < 0.4}
        for i in range(n) for j in range(n) if rng.random() < 0.5
    }
    return AlgebraStructure(n, tuple(f"b{i}" for i in range(n)), tensor)


RANDOM = [random_tensor(random.Random(seed)) for seed in range(30)]


class TestCartanIdentity:

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_family(self, m, n):
        algebra, _ = simple_leibniz_sl2(m)
        assert defects(algebra, adjoint_bimodule(algebra), n) == []

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m,seed", [(2, 1), (3, 2)])
    def test_graded_conjugates(self, m, seed, n, conjugate):
        algebra, grading = simple_leibniz_sl2(m)
        twisted = conjugate(algebra, seed, grading)
        assert defects(twisted, adjoint_bimodule(twisted), n) == []

    @pytest.mark.parametrize("seed", range(len(RANDOM)))
    def test_random_tensors(self, seed):
        algebra = RANDOM[seed]
        for n in (1, 2, 3):
            assert defects(algebra, adjoint_bimodule(algebra), n) == [], n

    def test_random_tensors_include_non_leibniz(self):
        # the identity needs no Leibniz identity
        failing = sum(bool(leibniz_defects(a)) for a in RANDOM)
        assert 0 < failing < len(RANDOM)

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_sl2_zero_left(self, m):
        module = irreducible_sl2_module(m)
        for n in (1, 2, 3):
            assert defects(sl2(), module, n) == [], n

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_sl2_symmetric(self, m):
        module = symmetric_bimodule(irreducible_sl2_module(m))
        for n in (0, 1, 2, 3):
            assert defects(sl2(), module, n) == [], n

    @pytest.mark.parametrize("m", [1, 2])
    def test_degree_zero_fails_for_zero_left(self, m):
        # d^0 m = [x, m] = 0, while theta_x m = [m, x] is not
        module = irreducible_sl2_module(m)
        assert defects(sl2(), module, 0)
