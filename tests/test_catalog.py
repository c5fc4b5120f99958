"""Built-in algebras and the algebra file format."""

from fractions import Fraction

import pytest

from leibcohom.algebra import Grading, leibniz_defects
from leibcohom.catalog import (
    AlgebraFileError,
    direct_sum,
    dumps_algebra,
    irreducible_sl2_module,
    lie_as_leibniz,
    load_algebra,
    loads_algebra,
    save_algebra,
    simple_leibniz_sl2,
    sl2,
)

F = Fraction


class TestSl2:
    def test_table(self):
        g = sl2()
        assert g.basis_labels == ("e", "f", "h")
        assert g.product(0, 1) == {2: F(1)}    # [e,f] = h
        assert g.product(1, 0) == {2: F(-1)}   # [f,e] = -h
        assert g.product(0, 2) == {0: F(2)}    # [e,h] = 2e
        assert g.product(2, 0) == {0: F(-2)}   # [h,e] = -2e
        assert g.product(2, 1) == {1: F(2)}    # [h,f] = 2f
        assert g.product(1, 2) == {1: F(-2)}   # [f,h] = -2f

    def test_is_lie(self):
        assert lie_as_leibniz(sl2()) is sl2() or lie_as_leibniz(sl2()).tensor == sl2().tensor


class TestFamily:
    def test_small_m_rejected(self):
        for m in (-1, 0, 1):
            with pytest.raises(ValueError):
                simple_leibniz_sl2(m)

    def test_labels_and_grading(self):
        algebra, grading = simple_leibniz_sl2(2)
        assert algebra.basis_labels == ("e", "f", "h", "x0", "x1", "x2")
        assert grading.degrees == (0, 0, 0, 1, 1, 1)

    def test_module_part_of_table(self):
        algebra, _ = simple_leibniz_sl2(4)
        # [x2, e] = -k(m+1-k) x1 = -2*3 x1 = -6 x1
        assert algebra.product(5, 0) == {4: F(-6)}
        # [x0, e] = 0
        assert algebra.product(3, 0) == {}
        # [x1, f] = x2
        assert algebra.product(4, 1) == {5: F(1)}
        # [x4, f] = 0 at the top of the string
        assert algebra.product(7, 1) == {}
        # [x1, h] = (m-2k) x1 = 2 x1
        assert algebra.product(4, 2) == {4: F(2)}

    def test_whole_table_matches_the_weight_formulas(self):
        for m in range(2, 31):
            expected = dict(sl2().tensor)
            for k in range(m + 1):
                if k >= 1:
                    expected[(3 + k, 0)] = {2 + k: F(-k * (m + 1 - k))}
                if k < m:
                    expected[(3 + k, 1)] = {4 + k: F(1)}
                if m != 2 * k:
                    expected[(3 + k, 2)] = {3 + k: F(m - 2 * k)}
            assert simple_leibniz_sl2(m)[0].tensor == expected

    def test_zero_weight_entry_omitted(self):
        algebra, _ = simple_leibniz_sl2(2)
        # [x1, h] = (2-2) x1 = 0: no tensor entry at all
        assert (4, 2) not in algebra.tensor

    def test_left_action_on_module_is_zero(self):
        algebra, _ = simple_leibniz_sl2(3)
        for i in range(3):
            for k in range(3, algebra.dim):
                assert algebra.product(i, k) == {}

    def test_identity_holds_across_family(self):
        for m in (2, 6, 9):
            algebra, _ = simple_leibniz_sl2(m)
            assert leibniz_defects(algebra) == []


class TestIrreducibleModule:
    def test_dimensions(self):
        for m in (0, 1, 5):
            module = irreducible_sl2_module(m)
            assert module.module_dim == m + 1
            assert module.algebra_dim == 3
            assert all(act == {} for act in module.left_action)

    def test_action_pins(self):
        module = irreducible_sl2_module(4)
        # x2 . e = -6 x1; x1 . f = x2; x1 . h = 2 x1
        assert module.right_action[0][(1, 2)] == F(-6)
        assert module.right_action[1][(2, 1)] == F(1)
        assert module.right_action[2][(1, 1)] == F(2)

    def test_trivial_module(self):
        module = irreducible_sl2_module(0)
        assert all(act == {} for act in module.right_action)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            irreducible_sl2_module(-1)


class TestLieAsLeibniz:
    def test_family_is_not_lie(self):
        algebra, _ = simple_leibniz_sl2(2)
        with pytest.raises(ValueError):
            lie_as_leibniz(algebra)


class TestDirectSum:
    def test_two_copies_of_sl2(self):
        s = direct_sum(sl2(), sl2())
        assert s.dim == 6
        assert leibniz_defects(s) == []
        # second summand multiplies like the first, shifted by 3
        assert s.product(3, 4) == {5: F(1)}
        # no cross terms
        assert s.product(0, 4) == {}


class TestFileFormat:
    def test_round_trip_with_grading(self, tmp_path):
        algebra, grading = simple_leibniz_sl2(3)
        text = dumps_algebra(algebra, grading)
        back, grading_back = loads_algebra(text)
        assert back.tensor == algebra.tensor
        assert back.basis_labels == algebra.basis_labels
        assert grading_back == grading
        assert dumps_algebra(back, grading_back) == text

    def test_round_trip_without_grading(self):
        text = dumps_algebra(sl2())
        back, grading = loads_algebra(text)
        assert grading is None
        assert back.tensor == sl2().tensor

    def test_save_and_load(self, tmp_path):
        algebra, grading = simple_leibniz_sl2(2)
        path = tmp_path / "family2.alg"
        save_algebra(algebra, grading, path)
        back, grading_back = load_algebra(path)
        assert back.tensor == algebra.tensor
        assert grading_back == grading

    def test_comments_and_blank_lines(self):
        text = (
            "# a comment\n"
            "algebra-file 1\n\n"
            "dim 2\n"
            "basis a b\n"
            "# another comment\n"
            "product 0 0 1 1\n"
        )
        algebra, grading = loads_algebra(text)
        assert algebra.dim == 2
        assert algebra.product(0, 0) == {1: F(1)}

    @pytest.mark.parametrize(
        "line,message",
        [
            ("product 0 0 1 4/2", "lowest terms"),
            ("product 0 0 1 1/0", "zero denominator"),
            ("product 0 0 1 0", "zero coefficient"),
            ("product 0 0 5 1", "exceeds dimension"),
            ("product 0 0 1 x", "coefficient"),
        ],
    )
    def test_bad_product_lines(self, line, message):
        text = f"algebra-file 1\ndim 2\nbasis a b\n{line}\n"
        with pytest.raises(AlgebraFileError, match=message):
            loads_algebra(text)

    def test_duplicate_product_rejected(self):
        text = (
            "algebra-file 1\ndim 2\nbasis a b\n"
            "product 0 0 1 1\nproduct 0 0 1 2\n"
        )
        with pytest.raises(AlgebraFileError, match="duplicate"):
            loads_algebra(text)

    def test_bad_header_rejected(self):
        with pytest.raises(AlgebraFileError):
            loads_algebra("algebra-file 2\ndim 1\nbasis a\n")

    def test_wrong_label_count_rejected(self):
        with pytest.raises(AlgebraFileError):
            loads_algebra("algebra-file 1\ndim 2\nbasis a\n")

    def test_wrong_grading_length_rejected(self):
        with pytest.raises(AlgebraFileError):
            loads_algebra("algebra-file 1\ndim 2\nbasis a b\ngrading 0\n")
