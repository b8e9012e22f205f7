"""Validation and round-trip behaviour of the count-data model."""

from __future__ import annotations

import numpy as np
import pytest

from grouphom.data import (
    GroupedDataset,
    ProbVector,
    load_dataset,
    read_counts_csv,
    validate_dataset,
    write_dataset_csv,
)
from grouphom.errors import (
    DatasetError,
    DuplicateSample,
    EmptyInput,
    MissingMate,
    MixedDimension,
    NegativeCount,
)


def one_group(c1, c2, group_id="a"):
    return GroupedDataset([c1], [c2], [group_id])


class TestCountVector:
    """A group's count vectors are the rows of ``c1`` and ``c2``."""

    def test_basic(self):
        ds = one_group([3, 0, 2], [1, 1, 1])
        assert ds.sizes(1).tolist() == [5]
        assert ds.d == 3
        assert ds.c1.dtype == np.int64

    def test_accepts_integral_floats(self):
        ds = one_group(np.array([1.0, 2.0]), [1, 2])
        assert ds.sizes(1).tolist() == [3]
        assert ds.c1.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(DatasetError, match="integers"):
            one_group([1.5, 2.0], [1, 2])

    def test_rejects_negative(self):
        with pytest.raises(NegativeCount, match=r"\[1, -1\]"):
            one_group([1, 2], [1, -1])

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            one_group([], [])

    def test_immutable(self):
        ds = one_group([1, 2], [3, 4])
        with pytest.raises(ValueError):
            ds.c2[0, 0] = 5
        source = np.array([1, 2])
        w = one_group(source, [3, 4])
        source[0] = 99
        assert w.c1[0, 0] == 1


class TestProbVector:
    def test_basic(self):
        p = ProbVector([0.25, 0.75])
        assert p.d == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(DatasetError):
            ProbVector([0.5, 0.4])

    def test_rejects_out_of_range(self):
        with pytest.raises(DatasetError):
            ProbVector([1.2, -0.2])

    def test_sum_tolerance(self):
        third = 1.0 / 3.0
        ProbVector([third, third, 1.0 - 2.0 * third])

    @pytest.mark.parametrize(
        "probs",
        [
            [np.nan, 1.0],
            [np.nan, np.nan, np.nan],
            [np.inf, 0.0],
            [0.5, 0.5, -np.inf],
        ],
    )
    def test_rejects_non_finite(self, probs):
        with pytest.raises(DatasetError, match="finite"):
            ProbVector(probs)


class TestGroupedDataset:
    def test_matrices_and_sizes(self):
        ds = GroupedDataset([[1, 2], [5, 6]], [[3, 4], [7, 8]], ["a", "b"])
        assert ds.k == 2
        assert ds.d == 2
        assert len(ds) == 2
        assert ds.c1.tolist() == [[1, 2], [5, 6]]
        assert ds.c2.tolist() == [[3, 4], [7, 8]]
        assert ds.sizes(1).tolist() == [3, 11]
        assert ds.sizes(2).tolist() == [7, 15]
        assert ds.ids == ("a", "b")

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            GroupedDataset(np.zeros((0, 2), np.int64), np.zeros((0, 2), np.int64), [])

    def test_rejects_mixed_dimension(self):
        with pytest.raises(MixedDimension):
            GroupedDataset([[1, 2], [1, 2, 3]], [[3, 4], [4, 5, 6]], ["a", "b"])

    def test_bad_population_argument(self):
        ds = one_group([1, 2], [3, 4])
        with pytest.raises(DatasetError):
            ds.sizes(3)
        with pytest.raises(DatasetError):
            ds.sizes(0)

    def test_from_counts_matches_pairs(self):
        # the array constructor and the row validator build equal datasets
        ds = GroupedDataset(
            np.array([[1, 2], [5, 6]]), [[3, 4], [7, 8]], ["a", "b"]
        )
        assert ds == validate_dataset(
            [("a", 1, [1, 2]), ("a", 2, [3, 4]), ("b", 1, [5, 6]), ("b", 2, [7, 8])]
        )
        assert ds.ids == ("a", "b")
        assert ds.c2[1].tolist() == [7, 8]
        assert ds.c1.dtype == np.int64
        with pytest.raises(ValueError):
            ds.c1[0, 0] = 9

    def test_from_counts_copies_its_input(self):
        c1 = np.array([[1, 2]])
        ds = GroupedDataset(c1, [[3, 4]], ["a"])
        c1[0, 0] = 99
        assert ds.c1[0, 0] == 1

    @pytest.mark.parametrize(
        "c1,c2,ids,error",
        [
            ([[1, 2]], [[1, 2, 3]], ["a"], DatasetError),
            ([1, 2], [1, 2], ["a"], DatasetError),
            ([[1, 2]], [[1, 2]], ["a", "b"], DatasetError),
            (np.zeros((0, 2)), np.zeros((0, 2)), [], EmptyInput),
            ([[1, -2]], [[1, 2]], ["a"], NegativeCount),
            ([[1.5, 2]], [[1, 2]], ["a"], DatasetError),
            ([[3]], [[4]], ["a"], DatasetError),
            ([[1, 2], [3, 4]], [[1, 2], [3, 4]], ["a", "a"], DuplicateSample),
            ([[1e20, 2]], [[1, 2]], ["a"], DatasetError),
            (np.array([[2**63, 2]], np.uint64), [[1, 2]], ["a"], DatasetError),
            ([[2**62] * 4], [[1, 2, 3, 4]], ["a"], DatasetError),
        ],
    )
    def test_from_counts_rejects(self, c1, c2, ids, error):
        with pytest.raises(error):
            GroupedDataset(c1, c2, ids)

    def test_rejects_duplicate_ids(self):
        # a dataset with repeated ids would write a CSV load_dataset refuses
        with pytest.raises(DuplicateSample, match="'a' population 1"):
            GroupedDataset([[1, 2], [5, 6]], [[3, 4], [7, 8]], ["a", "a"])

    def test_sizes_are_read_only(self):
        ds = one_group([1, 2], [3, 4])
        with pytest.raises(ValueError):
            ds.sizes(1)[0] = 0

    def test_rejects_single_category(self):
        with pytest.raises(DatasetError, match="at least 2 categories"):
            one_group([3], [4])


class TestValidateDataset:
    def test_order_of_first_appearance(self):
        ds = validate_dataset(
            [
                ("b", 1, [1, 0]),
                ("a", 2, [2, 2]),
                ("b", 2, [0, 1]),
                ("a", 1, [1, 1]),
            ]
        )
        assert ds.ids == ("b", "a")

    def test_idempotent(self):
        rows = [("g1", 1, [1, 2]), ("g1", 2, [3, 4])]
        ds = validate_dataset(rows)
        again = validate_dataset(
            (group_id, pop, counts[r].tolist())
            for r, group_id in enumerate(ds.ids)
            for pop, counts in ((1, ds.c1), (2, ds.c2))
        )
        assert again == ds

    def test_duplicate(self):
        with pytest.raises(DuplicateSample):
            validate_dataset(
                [("g", 1, [1, 2]), ("g", 1, [1, 2]), ("g", 2, [1, 2])]
            )

    def test_missing_mate(self):
        with pytest.raises(MissingMate):
            validate_dataset([("g", 1, [1, 2])])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            validate_dataset([])

    def test_bad_population(self):
        with pytest.raises(DatasetError):
            validate_dataset([("g", 3, [1, 2])])

    def test_mixed_dimension(self):
        with pytest.raises(MixedDimension):
            validate_dataset([("g", 1, [1, 2]), ("g", 2, [1, 2, 3])])

    def test_single_category(self):
        with pytest.raises(DatasetError, match="at least 2 categories"):
            validate_dataset([("g", 1, [3]), ("g", 2, [4])])

    def test_single_group(self):
        ds = validate_dataset([("only", 2, [0, 4]), ("only", 1, [2, 2])])
        assert ds.k == 1
        assert ds.c1.tolist() == [[2, 2]]
        assert ds.c2.tolist() == [[0, 4]]

    def test_negative_count_names_the_row(self):
        with pytest.raises(NegativeCount, match=r"\[1, -1\]"):
            validate_dataset([("g", 1, [1, 2]), ("g", 2, [1, -1])])


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = validate_dataset(
            [
                ("g1", 1, [1, 2, 3]),
                ("g1", 2, [0, 0, 6]),
                ("g2", 1, [4, 4, 4]),
                ("g2", 2, [2, 5, 5]),
            ]
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        assert load_dataset(path) == ds

    def test_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "group,population,c1,c2\n"
            "\n"
            "g1,1,3,1\n"
            "g1,2,2,2\n"
            "   \n"
        )
        ds = load_dataset(path)
        assert ds.k == 1
        assert ds.c1.tolist() == [[3, 1]]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetError):
            read_counts_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            read_counts_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("group,population,c1,c2\ng1,1,3\n")
        with pytest.raises(MixedDimension, match=":2"):
            read_counts_csv(path)

    def test_interleaved_out_of_order_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "group,population,c1,c2\n"
            "b,2,0,3\n"
            "a,1,1,1\n"
            "c,1,4,0\n"
            "b,1,2,2\n"
            "c,2,1,1\n"
            "a,2,5,5\n"
        )
        ds = load_dataset(path)
        assert ds.ids == ("b", "a", "c")
        assert ds.c1.tolist() == [[2, 2], [1, 1], [4, 0]]
        assert ds.c2.tolist() == [[0, 3], [5, 5], [1, 1]]

    def test_huge_counts_load_exactly(self, tmp_path):
        big = 10**12 + 7
        path = tmp_path / "data.csv"
        path.write_text(
            "group,population,c1,c2\n"
            f"g1,1,{big},{3 * big}\n"
            f"g1,2,{2 * big},1\n"
        )
        ds = load_dataset(path)
        assert ds.c1.dtype == np.int64
        assert ds.c1.tolist() == [[big, 3 * big]]
        assert ds.sizes(2).tolist() == [2 * big + 1]

    def test_single_category_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("group,population,c1\ng1,1,3\ng1,2,4\n")
        with pytest.raises(DatasetError, match="at least 2 categories"):
            load_dataset(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("group,population,c1,c2\ng1,1,3,x\n")
        with pytest.raises(DatasetError):
            read_counts_csv(path)
