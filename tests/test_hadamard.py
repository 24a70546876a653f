import random

import pytest

from csneighborly import (
    HadamardMatrix,
    load_hadamard,
    row_profile,
    save_hadamard,
    sylvester,
    validate,
)
from csneighborly.hadamard import gram_rows
from literal import kron, naive_product, transpose

H4_ROWS = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
    (1, -1, -1, 1),
)

# regular order-4 seed: every row and column sums to 2
R4 = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))


def regular_hadamard_16():
    return [list(row) for row in kron(R4, R4)]


class TestSylvester:
    def test_order_one(self):
        assert sylvester(0).signs == ((1,),)

    def test_order_two(self):
        assert sylvester(1).signs == ((1, 1), (1, -1))

    def test_order_four(self):
        assert sylvester(2).signs == H4_ROWS

    def test_doubling_structure(self):
        h = sylvester(3)
        prev = sylvester(2).signs
        for i in range(4):
            assert h.signs[i] == prev[i] + prev[i]
            assert h.signs[4 + i] == prev[i] + tuple(-x for x in prev[i])

    def test_all_orders_validate(self):
        for e in range(8):
            assert validate(sylvester(e).signs)

    def test_max_order_guard(self):
        with pytest.raises(ValueError):
            sylvester(13)  # 8192 > MAX_ORDER = 4096


class TestValidate:
    def test_valid(self):
        assert validate(sylvester(2).signs) is True

    def test_all_ones_is_not_hadamard(self):
        assert validate([[1] * 4 for _ in range(4)]) is False

    def test_transpose_invariance(self):
        rng = random.Random(5)
        for _ in range(10):
            rows = [
                [rng.choice((1, -1)) for _ in range(4)] for _ in range(4)
            ]
            cols = [list(c) for c in zip(*rows)]
            assert validate(rows) == validate(cols)

    def test_malformed_nonsquare(self):
        with pytest.raises(ValueError, match="malformed"):
            validate([[1, -1, 1], [1, 1, -1]])

    def test_malformed_entries(self):
        with pytest.raises(ValueError, match="malformed"):
            validate([[1, 0], [1, 1]])

    @pytest.mark.parametrize("signs, reason", [
        ((), "empty matrix"),
        ([], "empty matrix"),
        ([[]], "row 0 has length 0, expected 1"),
        ([[1, -1], [1]], "row 1 has length 1, expected 2"),
    ])
    def test_malformed_shape_reason(self, signs, reason):
        with pytest.raises(ValueError, match=reason):
            HadamardMatrix(signs)
        with pytest.raises(ValueError, match=reason):
            validate(signs)

    def test_constructor_reports_offending_pair(self):
        with pytest.raises(ValueError, match="columns 0 and 1"):
            HadamardMatrix([[1, 1], [1, 1]])

    def test_first_pair_in_row_major_order(self, tmp_path):
        # sylvester(3) with columns 5, 6, 7 set to column 2, column 3 and
        # -column 1: the pairs (1, 7), (2, 5) and (3, 6) are not orthogonal,
        # and (1, 7) comes first in row-major order though (2, 5) has the
        # smaller j
        rows = [list(row) for row in sylvester(3).signs]
        for row in rows:
            row[5], row[6], row[7] = row[2], row[3], -row[1]
        with pytest.raises(ValueError, match="columns 1 and 7 are not"):
            HadamardMatrix(rows)
        path = tmp_path / "pairs.txt"
        path.write_text(
            "8\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        with pytest.raises(ValueError, match="columns 1 and 7 are not"):
            load_hadamard(path)
        assert validate(rows) is False

    def test_gram_is_the_literal_product(self):
        for e in range(8):
            h = sylvester(e)
            assert h.gram == naive_product(transpose(h.signs), h.signs)

    @pytest.mark.parametrize("order", [31, 32, 33, 63, 64, 65])
    def test_gram_rows_random_signs(self, order):
        # masks of these lengths end at, inside and just past CPython's
        # 30-bit int digits
        rng = random.Random(order)
        rows = [[rng.choice((1, -1)) for _ in range(order)]
                for _ in range(order)]
        columns = tuple(zip(*rows))
        assert tuple(gram_rows(columns)) == naive_product(columns, rows)

    @pytest.mark.parametrize("bad", [0, 2])
    def test_gram_rows_refuses_other_entries(self, bad):
        rows = [list(row) for row in sylvester(2).signs]
        rows[1][2] = bad
        with pytest.raises(ValueError, match=f"entry \\(1,2\\) is {bad}"):
            tuple(gram_rows(tuple(zip(*rows))))

    def test_float_entries_are_not_truncated(self):
        # int(1.7) == 1 and int(-1.9) == -1 would make this sylvester(1)
        rows = [[1.7, 1], [1, -1.9]]
        with pytest.raises(TypeError):
            HadamardMatrix(rows)
        with pytest.raises(TypeError):
            validate(rows)
        with pytest.raises(TypeError):
            HadamardMatrix([[1.0, 1], [1, -1]])


class TestImport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "h8.txt"
        save_hadamard(sylvester(3), path)
        assert load_hadamard(path).signs == sylvester(3).signs

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "h2.txt"
        path.write_text("# order two\n2\n 1    1\n1 -1  # trailing comment\n")
        assert load_hadamard(path).signs == ((1, 1), (1, -1))

    def test_parse_error_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1 1\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            load_hadamard(path)

    def test_parse_error_bad_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n1 2\n")
        with pytest.raises(ValueError, match="malformed"):
            load_hadamard(path)

    def test_validation_failure_names_columns(self, tmp_path):
        path = tmp_path / "notH.txt"
        path.write_text("2\n1 1\n1 1\n")
        with pytest.raises(ValueError, match="columns 0 and 1"):
            load_hadamard(path)


class TestRowProfile:
    def test_sylvester_four(self):
        prof = row_profile(sylvester(2))
        assert prof.row_sums == (4, 0, 0, 0)
        assert prof.per_row[0] == (4, 4)
        assert not prof.regular

    def test_order_one_regular(self):
        prof = row_profile(sylvester(0))
        assert prof.row_sums == (1,)
        assert prof.regular

    def test_regular_sixteen_imported(self, tmp_path):
        path = tmp_path / "h16.txt"
        rows = regular_hadamard_16()
        path.write_text(
            "16\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        )
        h = load_hadamard(path)
        prof = row_profile(h)
        # (d + sqrt(d))/2 = 10 entries +1and row sum sqrt(16) = 4
        assert all(entry == (10, 4) for entry in prof.per_row)
        assert prof.regular


class TestSignedColumnSums:
    def test_bounded_by_subset_size(self):
        rng = random.Random(41)
        h = sylvester(4)
        for _ in range(100):
            l = rng.randint(1, 8)
            idxs = rng.sample(range(16), l)
            signs = [rng.choice((1, -1)) for _ in range(l)]
            total = [0] * 16
            for i, s in zip(idxs, signs):
                for c in range(16):
                    total[c] += s * h.columns[i][c]
            assert max(abs(v) for v in total) <= l
