"""Refusals of outside input that no other test reaches: each case checks
the exception (or exit code) and its message."""

import io
import re

import numpy as np
import pytest

import shuffle_sgd as ss
from shuffle_sgd import bounds, constants
from shuffle_sgd.bounds import BoundInputs
from shuffle_sgd.cli import main
from shuffle_sgd.losses import LossModel

from conftest import assert_same_dataset


class TestSparseDataset:
    @pytest.mark.parametrize("indptr, labels, d, message", [
        ([0], [], 1, "dataset must have n >= 1 and d >= 1, got n=0, d=1"),
        ([0, 0], [1.0], 0, "dataset must have n >= 1 and d >= 1, got n=1, d=0"),
    ], ids=["no-rows", "no-columns"])
    def test_empty_shape(self, indptr, labels, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ss.SparseDataset(indptr, [], [], labels, d)

    def test_labels_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^labels length must equal row count$"):
            ss.SparseDataset([0, 1, 2], [0, 1], [1.0, 2.0], [1.0], 2)

    @pytest.mark.parametrize("index", [-1, 2], ids=["negative", "at-d"])
    def test_index_outside_the_columns(self, index):
        with pytest.raises(ValueError, match=r"^feature index out of range \[0, d\)$"):
            ss.SparseDataset([0, 1], [index], [1.0], [1.0], 2)


class TestParseLibsvm:
    def test_non_integer_index_is_named_by_the_line_parser(self):
        # the bulk parser's digit check refuses the '.', and the line
        # parser says what is wrong
        message = "line 1: non-integer feature index '1.5'"
        with pytest.raises(ss.ParseError, match=f"^{re.escape(message)}$"):
            ss.parse_libsvm("1 1.5:2\n")

    @pytest.mark.parametrize("wrap", [
        lambda raw: io.BytesIO(raw), lambda raw: io.StringIO(raw.decode()),
    ], ids=["bytes", "text"])
    def test_file_object_reads_as_its_contents(self, wrap):
        raw = b"1 1:0.5 3:2\n-1 2:1.25\n"
        assert_same_dataset(ss.parse_libsvm(wrap(raw)), ss.parse_libsvm(raw))


@pytest.fixture
def hinge_data():
    ds = ss.gen_gaussian(6, 2, 0)
    return ds, LossModel.for_dataset("hinge", ds)


class TestConstants:
    def test_ratio_stats_needs_a_permutation(self):
        ds = ss.gen_gaussian(4, 2, 0)
        with pytest.raises(ValueError, match="^num_perms must be >= 1$"):
            constants.ratio_stats(ds, ss.RegularityDiag(np.ones(4)), b=1, num_perms=0)

    def test_ystar_norm_needs_a_smooth_loss(self, hinge_data):
        ds, model = hinge_data
        with pytest.raises(ValueError, match="^weighted dual norm requires a smooth loss family$"):
            constants.ystar_weighted_norm(ds, model, np.zeros(ds.d))

    def test_reference_minimizer_needs_a_smooth_loss(self, hinge_data):
        with pytest.raises(ValueError,
                           match="^reference minimizer requires a smooth loss family$"):
            constants.reference_minimizer(*hinge_data)


class TestBounds:
    @pytest.mark.parametrize("n, K", [(0, 1), (1, 0)], ids=["n", "K"])
    def test_inputs_need_components_and_epochs(self, n, K):
        with pytest.raises(ValueError, match="^n and K must be >= 1$"):
            BoundInputs(n=n, b=1, K=K)

    @pytest.mark.parametrize("hatL, tildeL", [(0.0, 1.0), (1.0, 0.0)], ids=["hatL", "tildeL"])
    def test_smooth_step_needs_positive_constants(self, hatL, tildeL):
        inp = BoundInputs(n=4, b=2, K=1, hatL=hatL, tildeL=tildeL)
        with pytest.raises(ValueError, match="^hatL and tildeL must be positive for the smooth "
                                             "step size$"):
            bounds.base_step(inp)


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["optimize"], ["verify-bound", "--bound", "rr"],
    ], ids=lambda argv: argv[0])
    def test_no_data_source(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "r"]) == 2
        assert capsys.readouterr().err == "error: provide --input PATH or --gaussian N,D\n"
        assert list(tmp_path.iterdir()) == []

    def test_theoretical_step_without_a_finite_minimizer(self, tmp_path, capsys):
        # one feature, every label +1: f falls forever along x = +1
        data = tmp_path / "sep.svm"
        data.write_text("1 1:1\n1 1:2\n1 1:0.5\n1 1:1.5\n")
        code = main(["optimize", "--input", str(data), "--loss", "logistic", "--b", "1",
                     "--perms", "2", "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: reference minimizer stopped (no_finite_minimizer); cannot size the step\n")
        assert list(tmp_path.iterdir()) == [data]
