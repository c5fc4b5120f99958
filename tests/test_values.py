"""Value semantics of the package's immutable classes: construction by
position and keyword, equality, hashing, repr, immutability, pickling and
the constructors' checks, as a frozen dataclass would give them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from leibcohom.algebra import AlgebraStructure, Bimodule, Grading, IdentityViolation
from leibcohom.cohomology import BlockAnalysis, CohomologyReport
from leibcohom.derivations import DerivationDecomposition
from leibcohom.linalg import SparseRationalMatrix, Subspace

ONE = SparseRationalMatrix(1, 1, {0: {0: F(1)}})
ZERO = SparseRationalMatrix(1, 1, {})

# class -> (field names in order, constructor arguments, argument tuples
# of unequal instances: each changes one field where the checks allow)
CASES = {
    AlgebraStructure: (
        ("dim", "basis_labels", "tensor"),
        (2, ("a", "b"), {(0, 1): {1: F(1, 2)}}),
        [
            (2, ("a", "c"), {(0, 1): {1: F(1, 2)}}),
            (2, ("a", "b"), {(0, 1): {1: F(1, 3)}}),
            (1, ("a",), {}),
        ],
    ),
    Grading: (("degrees",), ((0, 1, 1),), [((0, 1, 2),)]),
    IdentityViolation: (
        ("triple", "defect", "axiom"),
        ((0, 1, 2), {0: F(1)}, None),
        [((0, 1, 3), {0: F(1)}, None), ((0, 1, 2), {0: F(2)}, None), ((0, 1, 2), {0: F(1)}, 1)],
    ),
    Bimodule: (
        ("algebra_dim", "module_dim", "left_action", "right_action"),
        (1, 2, ({(0, 1): F(1)},), ({(1, 0): F(-1)},)),
        [
            (0, 2, (), ()),
            (1, 3, ({(0, 1): F(1)},), ({(1, 0): F(-1)},)),
            (1, 2, ({(1, 0): F(1)},), ({(1, 0): F(-1)},)),
            (1, 2, ({(0, 1): F(1)},), ({},)),
        ],
    ),
    SparseRationalMatrix: (
        ("rows", "cols", "columns"),
        (2, 3, {2: {0: F(1, 2)}}),
        [(3, 3, {2: {0: F(1, 2)}}), (2, 4, {2: {0: F(1, 2)}}), (2, 3, {2: {1: F(1, 2)}})],
    ),
    Subspace: (
        ("ambient_dim", "basis"),
        (3, ({0: F(1), 2: F(2)},)),
        [(4, ({0: F(1), 2: F(2)},)), (3, ({1: F(1)},))],
    ),
    CohomologyReport: (
        ("arity", "dim_z", "dim_b", "dim_h", "per_degree"),
        (2, 5, 3, 2, {0: (5, 3, 2)}),
        [
            (1, 5, 3, 2, {0: (5, 3, 2)}),
            (2, 6, 4, 2, {0: (5, 3, 2)}),
            (2, 5, 2, 3, {0: (5, 3, 2)}),
            (2, 5, 3, 2, {0: (4, 2, 2)}),
            (2, 5, 3, 2, {1: (5, 3, 2)}),
        ],
    ),
    BlockAnalysis: (
        ("degree", "blocks", "projection_dim", "supported_dim", "projection_injective"),
        (0, (("G", "I"),), 3, 1, False),
        [
            (1, (("G", "I"),), 3, 1, False),
            (0, (("I", "G"),), 3, 1, False),
            (0, (("G", "I"),), 4, 1, False),
            (0, (("G", "I"),), 3, 2, False),
            (0, (("G", "I"),), 3, 1, True),
        ],
    ),
    DerivationDecomposition: (
        ("coefficients", "lam", "delta", "residual"),
        ((F(1),), F(2), ONE, ZERO),
        [((F(3),), F(2), ONE, ZERO), ((F(1),), F(0), ONE, ZERO), ((F(1),), F(2), ZERO, ZERO),
         ((F(1),), F(2), ONE, ONE)],
    ),
}
HASHABLE = {Grading, BlockAnalysis}
CLASSES = list(CASES)


def _make(cls):
    return cls(*CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_position_and_keyword_agree(self, cls):
        names, args, _ = CASES[cls]
        by_keyword = cls(**dict(zip(names, args)))
        assert by_keyword == cls(*args)
        assert [getattr(by_keyword, n) for n in names] == [getattr(cls(*args), n) for n in names]

    def test_defaults(self, cls):
        args = CASES[cls][1]
        if cls is IdentityViolation:
            assert cls(*args[:-1]).axiom is None
            assert cls(*args[:-1]) == cls(*args)
        else:
            with pytest.raises(TypeError):
                cls(*args[:-1])

    def test_equality(self, cls):
        _, args, variants = CASES[cls]
        obj = _make(cls)
        assert obj == cls(*args) and not obj != cls(*args)
        for other in variants:
            assert obj != cls(*other) and not obj == cls(*other)

    def test_other_classes_are_never_equal(self, cls):
        obj = _make(cls)
        assert obj.__eq__(object()) is NotImplemented
        assert obj != tuple(CASES[cls][1])
        for other in CLASSES:
            if other is not cls:
                assert obj != _make(other)
                assert obj.__eq__(_make(other)) is NotImplemented

    def test_hash(self, cls):
        obj = _make(cls)
        if cls in HASHABLE:
            assert hash(obj) == hash(_make(cls))
            assert len({obj, _make(cls)}) == 1
        else:
            with pytest.raises(TypeError):
                hash(obj)

    def test_repr_names_every_field(self, cls):
        names = CASES[cls][0]
        obj = _make(cls)
        shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
        assert repr(obj) == f"{cls.__qualname__}({shown})"

    def test_immutable(self, cls):
        names = CASES[cls][0]
        obj = _make(cls)
        for name in names:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, before)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert not hasattr(obj, "not_a_field")

    def test_pickle_and_copy_round_trip(self, cls):
        obj = _make(cls)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) == obj
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj


BAD = [
    (AlgebraStructure, (-1, (), {}), ValueError),
    (AlgebraStructure, (2, ("a",), {}), ValueError),
    (AlgebraStructure, (2, ("a", "b"), {(0, 2): {0: F(1)}}), ValueError),
    (AlgebraStructure, (2, ("a", "b"), {(0, 1): {2: F(1)}}), ValueError),
    (AlgebraStructure, (2, ("a", "b"), {(0, 1): {1: 0.5}}), TypeError),
    (AlgebraStructure, (2, ("a", "b"), {(0, 1): [F(1)]}), TypeError),
    (Grading, ((0, 1.0),), TypeError),
    (Grading, ((0, "1"),), TypeError),
    (IdentityViolation, ((0, 1, 2), {}), ValueError),
    (Bimodule, (-1, 2, (), ()), ValueError),
    (Bimodule, (1, -2, ({},), ({},)), ValueError),
    (Bimodule, (1, 2, (), ({},)), ValueError),
    (Bimodule, (1, 2, ({},), ()), ValueError),
    (Bimodule, (1, 2, ({(2, 0): F(1)},), ({},)), ValueError),
    (Bimodule, (1, 2, ({},), ({(0, -1): F(1)},)), ValueError),
    (Bimodule, (1, 2, ({(0, 1): 1.0},), ({},)), TypeError),
    (SparseRationalMatrix, (-1, 2, {}), ValueError),
    (SparseRationalMatrix, (2, -1, {}), ValueError),
    (SparseRationalMatrix, (2, 2, {0: {2: F(1)}}), ValueError),
    (SparseRationalMatrix, (2, 2, {0: {0: "1"}}), TypeError),
    (Subspace, (-1, ()), ValueError),
    (Subspace, (3, ({},)), ValueError),
    (Subspace, (3, ({1: F(1)}, {0: F(1)})), ValueError),
    (Subspace, (3, ({0: F(1), 3: F(1)},)), ValueError),
    (Subspace, (3, ({0: F(2)},)), ValueError),
    (Subspace, (3, ({0: F(1), 1: F(1)}, {1: F(1)})), ValueError),
    (CohomologyReport, (2, 5, 3, 1, {}), ValueError),
    (CohomologyReport, (2, 1, 3, -2, {}), ValueError),
    (CohomologyReport, (2, 5, 3, 2, {0: (5, 3, 1)}), ValueError),
    (CohomologyReport, (2, 5, 3, 2, {0: (1, 3, -2)}), ValueError),
]


@pytest.mark.parametrize(
    "cls, args, error", BAD, ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(BAD)]
)
def test_constructor_rejects_bad_input(cls, args, error):
    with pytest.raises(error):
        cls(*args)
