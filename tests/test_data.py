import gzip
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shuffle_sgd as ss
from shuffle_sgd import data
from shuffle_sgd.data import ParseError

from conftest import random_sparse_dataset


class TestParseLibsvm:
    def test_basic_line(self):
        ds = ss.parse_libsvm("+1 1:0.5 3:-2\n")
        assert ds.n == 1 and ds.d == 3
        idx, val = ds.row(0)
        assert list(idx) == [0, 2]
        assert list(val) == [0.5, -2.0]
        assert ds.labels[0] == 1.0

    def test_out_of_order_indices_sorted(self):
        ds = ss.parse_libsvm("1 2:1 1:1\n")
        idx, val = ds.row(0)
        assert list(idx) == [0, 1]
        assert list(val) == [1.0, 1.0]

    def test_malformed_value_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            ss.parse_libsvm("1 1:a\n")

    def test_malformed_label(self):
        with pytest.raises(ParseError, match="label"):
            ss.parse_libsvm("x 1:1\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            ss.parse_libsvm("1 1:1 1:2\n")

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ParseError):
            ss.parse_libsvm("1 0:1\n")
        with pytest.raises(ParseError):
            ss.parse_libsvm("1 -3:1\n")

    def test_blank_lines_and_comments_skipped(self):
        ds = ss.parse_libsvm("\n# full comment\n-1 1:2  # trailing\n\n+1 2:3\n")
        assert ds.n == 2 and ds.d == 2
        assert list(ds.labels) == [-1.0, 1.0]

    def test_line_numbers_count_skipped_lines(self):
        with pytest.raises(ParseError, match="line 3"):
            ss.parse_libsvm("\n1 1:1\n1 1:bad\n")

    def test_d_override(self):
        ds = ss.parse_libsvm("1 1:1\n", d=10)
        assert ds.d == 10
        with pytest.raises(ParseError, match="override"):
            ss.parse_libsvm("1 5:1\n", d=3)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            ss.parse_libsvm("")

    def test_bytes_gzip_bz2(self, tmp_path):
        import bz2

        text = "+1 1:0.25 2:4\n-1 2:1\n"
        ds_text = ss.parse_libsvm(text)
        ds_bytes = ss.parse_libsvm(text.encode())
        assert ds_text.equals(ds_bytes)
        gz = tmp_path / "data.gz"
        gz.write_bytes(gzip.compress(text.encode()))
        assert ss.load_libsvm(gz).equals(ds_text)
        bz = tmp_path / "data.bz2"
        bz.write_bytes(bz2.compress(text.encode()))
        assert ss.load_libsvm(bz).equals(ds_text)

    def test_row_without_features(self):
        ds = ss.parse_libsvm("1 1:1\n0\n")
        idx, val = ds.row(1)
        assert idx.size == 0 and val.size == 0

    def test_non_utf8_reports_line(self):
        with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff"):
            ss.parse_libsvm(b"1 1:1\n\xff 2:1\n")


def loop_parse(raw, d=None):
    """The line parser alone, as the reference for the bulk parser."""
    return data._dataset(*data._parse_lines(raw), d)


def outcome(parse, raw, d):
    try:
        ds = parse(raw, d)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", ds.d, *(a.dtype.str + a.tobytes().hex()
                          for a in (ds.indptr, ds.indices, ds.values, ds.labels))


def rcv1_text(n, d, k, seed):
    """rcv1-shaped LIBSVM bytes: k sorted nonzeros per row, repr values."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        cols = np.sort(rng.choice(d, k, replace=False)) + 1
        pairs = " ".join(f"{j}:{v!r}" for j, v in zip(cols.tolist(), rng.random(k).tolist()))
        lines.append(f"{float(rng.choice([-1.0, 1.0]))!r} {pairs}\n")
    return "".join(lines).encode()


def _number(draw):
    x = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    fmt = draw(st.sampled_from(["{!r}", "+{!r}", "{:e}", "{:E}", "{:.0f}", "{:.3f}", "00{!r}"]))
    text = fmt.format(abs(x) if fmt.startswith(("+", "00")) else x)
    return text.replace("0.", ".", 1) if draw(st.booleans()) and text.startswith("0.") else text


@st.composite
def libsvm_text(draw):
    """Valid LIBSVM bytes in varied layout, and a d override (None or wide enough)."""
    space = st.text(" \t", min_size=1, max_size=3)
    lines, max_idx = [], 0
    for _ in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(0, 2))):  # blank and comment-only lines
            lines.append(draw(st.sampled_from(["", "  \t", "# note", " #1 2:3"])))
        cols = draw(st.lists(st.integers(1, 40), unique=True, max_size=6))
        max_idx = max([max_idx, *cols])
        toks = [_number(draw)] + [
            f"{'0' * draw(st.integers(0, 2))}{j}:{_number(draw)}" for j in cols
        ]
        line = "".join(draw(space) + t for t in toks) if draw(st.booleans()) else " ".join(toks)
        if draw(st.booleans()):
            line += draw(space)
        if draw(st.booleans()):
            line += draw(st.sampled_from(["#", "# a:b 1:2", " # caf\u00e9"]))
        lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    d = draw(st.sampled_from([None, max_idx + 2, max(max_idx, 1)]))
    return text.encode(), d


class TestBulkParse:
    """parse_libsvm's bulk path against the line parser it falls back to."""

    @given(libsvm_text(), st.sampled_from([1, 5, 64, data._CHUNK_BYTES]))
    def test_valid_text_matches_loop_on_bulk_path(self, case, chunk):
        raw, d = case
        expected = outcome(loop_parse, raw, d)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk), \
                mock.patch.object(data, "_parse_lines", side_effect=AssertionError("loop ran")):
            assert outcome(ss.parse_libsvm, raw, d) == expected

    @given(libsvm_text(), st.sampled_from([1, 5, data._CHUNK_BYTES]),
           st.sampled_from(["insert", "delete", "replace"]),
           st.sampled_from(list(b":.e-+#\nx\xa0")), st.floats(0, 1, exclude_max=True))
    def test_one_byte_mutation_matches_loop(self, case, chunk, op, byte, where):
        raw, d = case
        at = int(where * (len(raw) + (op == "insert")))
        if op == "insert":
            raw = raw[:at] + bytes([byte]) + raw[at:]
        elif op == "delete":
            raw = raw[:at] + raw[at + 1:]
        else:
            raw = raw[:at] + bytes([byte]) + raw[at + 1:]
        expected = outcome(loop_parse, raw, d)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk):
            assert outcome(ss.parse_libsvm, raw, d) == expected

    def test_rcv1_shaped_never_enters_loop(self):
        raw = rcv1_text(300, 23500, 74, seed=5)
        expected = outcome(loop_parse, raw, None)
        with mock.patch.object(data, "_CHUNK_BYTES", 1 << 14), \
                mock.patch.object(data, "_parse_lines", side_effect=AssertionError("loop ran")):
            assert outcome(ss.parse_libsvm, raw, None) == expected

    def test_peak_memory_not_above_loop(self):
        raw = rcv1_text(2300, 23500, 74, seed=6)
        assert len(raw) >= 4 << 20

        def peak(parse):
            tracemalloc.start()
            try:
                parse(raw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(data, "_parse_lines", side_effect=AssertionError("loop ran")):
            bulk = peak(ss.parse_libsvm)
        assert bulk <= peak(loop_parse)


class TestRoundTrip:
    def test_round_trip_fixed(self, rng):
        for _ in range(20):
            ds = random_sparse_dataset(rng, ensure_nonzero=False)
            back = ss.parse_libsvm(ss.serialize_libsvm(ds), d=ds.d)
            assert back.equals(ds)

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_sparse_dataset(rng, ensure_nonzero=False)
        back = ss.parse_libsvm(ss.serialize_libsvm(ds), d=ds.d)
        assert back.equals(ds)


class TestGenGaussian:
    def test_shape_and_finite(self):
        ds = ss.gen_gaussian(2, 3, seed=7)
        assert (ds.n, ds.d) == (2, 3)
        assert np.all(np.isfinite(ds.to_dense()))
        assert np.all(ds.labels == 0)

    def test_deterministic(self):
        a = ss.gen_gaussian(5, 4, seed=123).to_dense()
        b = ss.gen_gaussian(5, 4, seed=123).to_dense()
        assert np.array_equal(a, b)
        c = ss.gen_gaussian(5, 4, seed=124).to_dense()
        assert not np.array_equal(a, c)

    def test_single_entry_deterministic(self):
        assert ss.gen_gaussian(1, 1, 42).to_dense() == ss.gen_gaussian(1, 1, 42).to_dense()

    def test_moments(self):
        # n=d=500: sample mean within 0.05 of 0 and variance within 0.05 of 1
        x = ss.gen_gaussian(500, 500, seed=9).to_dense()
        assert abs(x.mean()) < 0.05
        assert abs(x.var() - 1.0) < 0.05

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ss.gen_gaussian(0, 3, 1)


class TestRowSqNorms:
    def test_identity(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert np.allclose(ss.row_sq_norms(ds), [1.0, 1.0])

    def test_pythagorean_row(self):
        ds = ss.parse_libsvm("1 1:3 3:4\n")
        assert ss.row_sq_norms(ds)[0] == 25.0

    def test_zero_row(self):
        ds = ss.parse_libsvm("1 1:1\n0\n")
        norms = ss.row_sq_norms(ds)
        assert norms[1] == 0.0

    def test_small_row_after_a_large_one(self):
        # prefix sums over all rows would lose the 1 in 1e16 + 1
        ds = ss.SparseDataset.from_dense(np.array([[1e8, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        assert ss.row_sq_norms(ds).tolist() == [1e16, 1.0, 4.0]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6))
    def test_matches_dense_row_sums(self, seed, n, d):
        # row scales over 16 decades, so huge rows precede tiny ones; empty
        # rows included
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-8, 9, size=(n, 1))
        A = rng.standard_normal((n, d)) * scale * (rng.random((n, d)) < 0.6)
        A[rng.random(n) < 0.3] = 0.0
        ds = ss.SparseDataset.from_rows([(np.flatnonzero(r), r[r != 0]) for r in A],
                                        np.zeros(n), d=d)
        got = ss.row_sq_norms(ds)
        want = (A * A).sum(1)
        assert np.all(np.abs(got - want) <= 4 * d * np.finfo(float).eps * want)

    def test_nonnegative_zero_iff_empty(self, rng):
        for _ in range(10):
            ds = random_sparse_dataset(rng, ensure_nonzero=False)
            norms = ss.row_sq_norms(ds)
            assert np.all(norms >= 0)
            for i in range(ds.n):
                idx, val = ds.row(i)
                empty = val.size == 0 or not np.any(val)
                assert (norms[i] == 0.0) == empty


class TestPermutedView:
    def test_rows_resolve_through_perm(self, rng):
        ds = random_sparse_dataset(rng)
        perm = rng.permutation(ds.n)
        view = ss.PermutedView(ds, perm)
        for i in range(ds.n):
            vi, vv = view.row(i)
            bi, bv = ds.row(int(perm[i]))
            assert np.array_equal(vi, bi) and np.array_equal(vv, bv)
        ref = ds.to_csr()[perm]
        assert np.array_equal(view.indptr, ref.indptr)
        assert np.array_equal(view.indices, ref.indices)
        assert np.array_equal(view.values, ref.data)
        assert np.array_equal(view.rows, np.repeat(np.arange(ds.n), np.diff(ref.indptr)))

    def test_rejects_non_bijection(self, rng):
        ds = random_sparse_dataset(rng, n=4)
        with pytest.raises(ValueError):
            ss.PermutedView(ds, np.array([0, 0, 1, 2]))


class TestImmutability:
    def test_arrays_frozen(self):
        ds = ss.gen_gaussian(3, 2, 1)
        with pytest.raises(ValueError):
            ds.values[0] = 99.0
        with pytest.raises(ValueError):
            ds.labels[0] = 99.0


class TestRowOrderCheck:
    def test_accepts_decrease_across_row_boundary(self):
        # rows [2], [], [0, 1]: the drop 2 -> 0 is a new row, not disorder
        ds = ss.SparseDataset([0, 1, 1, 3], [2, 0, 1], [1.0, 1.0, 1.0], [0.0] * 3, 3)
        assert ds.nnz == 3

    @given(st.integers(0, 2**32 - 1))
    def test_matches_per_row_check(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        counts = rng.integers(0, 4, n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, 4, int(indptr[-1]))
        bad = [i for i in range(n)
               if np.any(np.diff(indices[indptr[i]:indptr[i + 1]]) <= 0)]
        args = (indptr, indices, np.ones(len(indices)), np.zeros(n), 4)
        if bad:
            with pytest.raises(ValueError, match=f"^row {bad[0]}: indices must be strictly increasing$"):
                ss.SparseDataset(*args)
        else:
            ss.SparseDataset(*args)
