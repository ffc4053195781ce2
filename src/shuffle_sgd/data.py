"""Row-sparse datasets: LIBSVM parsing, synthetic Gaussian data, row views.

The dataset is stored CSR-style (indptr / indices / values) with 0-based
column indices; LIBSVM input uses 1-based indices, mapped on parse. All
arrays are frozen after construction, so datasets can be shared freely
across threads.
"""

from __future__ import annotations

import gzip
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import prng


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class SparseDataset:
    """Immutable n x d row-sparse matrix with one label per row."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.indptr = _freeze(np.asarray(self.indptr, dtype=np.int64))
        self.indices = _freeze(np.asarray(self.indices, dtype=np.int64))
        self.values = _freeze(np.asarray(self.values, dtype=np.float64))
        self.labels = _freeze(np.asarray(self.labels, dtype=np.float64))
        n = len(self.indptr) - 1
        if n < 1 or self.d < 1:
            raise ValueError(f"dataset must have n >= 1 and d >= 1, got n={n}, d={self.d}")
        if len(self.labels) != n:
            raise ValueError("labels length must equal row count")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("feature index out of range [0, d)")
        # a step between neighbouring entries may only fail to increase
        # where a new row starts
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts <= len(bad))] - 1] = False
        if bad.any():
            pos = int(np.argmax(bad)) + 1
            i = int(np.searchsorted(self.indptr, pos, side="right")) - 1
            raise ValueError(f"row {i}: indices must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.values)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.indices, self.indptr), shape=(self.n, self.d)
            )
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def equals(self, other: "SparseDataset") -> bool:
        return (
            self.d == other.d
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.labels, other.labels)
        )

    @classmethod
    def from_rows(cls, rows, labels, d=None) -> "SparseDataset":
        """Build from a list of (indices, values) pairs, sorting each row."""
        indptr = [0]
        idx_parts, val_parts = [], []
        max_idx = -1
        for ri, (idx, val) in enumerate(rows):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            if idx.size:
                order = np.argsort(idx, kind="stable")
                idx, val = idx[order], val[order]
                if np.any(np.diff(idx) == 0):
                    raise ValueError(f"row {ri}: duplicate feature index")
                max_idx = max(max_idx, int(idx[-1]))
            idx_parts.append(idx)
            val_parts.append(val)
            indptr.append(indptr[-1] + idx.size)
        if d is None:
            d = max_idx + 1
        return cls(
            indptr=np.asarray(indptr),
            indices=np.concatenate(idx_parts) if idx_parts else np.zeros(0, np.int64),
            values=np.concatenate(val_parts) if val_parts else np.zeros(0),
            labels=np.asarray(labels, dtype=np.float64),
            d=d,
        )

    @classmethod
    def from_dense(cls, array, labels=None) -> "SparseDataset":
        array = np.asarray(array, dtype=np.float64)
        n, d = array.shape
        if labels is None:
            labels = np.zeros(n)
        indices = np.tile(np.arange(d, dtype=np.int64), n)
        indptr = np.arange(n + 1, dtype=np.int64) * d
        return cls(indptr=indptr, indices=indices, values=array.ravel().copy(), labels=labels, d=d)


@dataclass
class PermutedView:
    """A dataset with its rows reordered by a permutation; row i is base row perm[i].

    The permuted CSR arrays are gathered once, so rows lo:hi are the
    contiguous nonzero range [indptr[lo], indptr[hi]) of `indices`/`values`,
    and `rows` holds the (permuted) row of every nonzero.
    """

    base: SparseDataset
    perm: np.ndarray
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
        base = self.base
        n = base.n
        if self.perm.shape != (n,) or not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise ValueError("perm must be a permutation of range(n)")
        starts = base.indptr[:-1][self.perm]
        lengths = base.indptr[1:][self.perm] - starts
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.indptr[1:])
        self.rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        src = np.repeat(starts - self.indptr[:-1], lengths)
        src += np.arange(base.nnz, dtype=np.int64)
        self.indices = base.indices[src]
        self.values = base.values[src]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.base.row(int(self.perm[i]))


def _parse_token(tok: str, line_no: int):
    parts = tok.split(":")
    if len(parts) != 2:
        raise ParseError(f"expected idx:val pair, got {tok!r}", line_no)
    try:
        idx = int(parts[0])
    except ValueError:
        raise ParseError(f"non-integer feature index {parts[0]!r}", line_no) from None
    try:
        val = float(parts[1])
    except ValueError:
        raise ParseError(f"non-numeric feature value {parts[1]!r}", line_no) from None
    if not math.isfinite(val):
        raise ParseError(f"non-finite feature value {parts[1]!r}", line_no)
    if idx <= 0:
        raise ParseError(f"feature index must be >= 1, got {idx}", line_no)
    return idx - 1, val


def _parse_lines(raw: bytes):
    """Line-by-line parse of LIBSVM bytes into (labels, indptr, indices, values).

    This is the reference for the bulk parser and the path that names the
    line of a fault: it runs only on input `_parse_bulk` refuses. Only the
    text before a `#` has to be UTF-8.
    """
    rows, labels = [], []
    for line_no, line in enumerate(raw.split(b"\n"), start=1):
        data = line.split(b"#", 1)[0]
        try:
            toks = data.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"invalid UTF-8 byte 0x{data[exc.start]:02x} at column {exc.start + 1}", line_no
            ) from None
        if not toks:
            continue
        try:
            label = float(toks[0])
        except ValueError:
            raise ParseError(f"non-numeric label {toks[0]!r}", line_no) from None
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {toks[0]!r}", line_no)
        idx, val = [], []
        for tok in toks[1:]:
            i, v = _parse_token(tok, line_no)
            idx.append(i)
            val.append(v)
        order = np.argsort(idx, kind="stable")
        idx = np.asarray(idx, dtype=np.int64)[order]
        val = np.asarray(val, dtype=np.float64)[order]
        if idx.size > 1 and np.any(np.diff(idx) == 0):
            dup = int(idx[np.nonzero(np.diff(idx) == 0)[0][0]]) + 1
            raise ParseError(f"duplicate feature index {dup}", line_no)
        rows.append((idx, val))
        labels.append(label)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r[0].size for r in rows], out=indptr[1:])
    return (
        np.asarray(labels, dtype=np.float64),
        indptr,
        np.concatenate([r[0] for r in rows] or [np.zeros(0, np.int64)]),
        np.concatenate([r[1] for r in rows] or [np.zeros(0)]),
    )


# Bytes the bulk parser takes at once, rounded down to a line end. Its
# temporaries peak near three times this size whatever the input size, which
# keeps its peak below the line parser's from inputs of about 4 MB.
_CHUNK_BYTES = 1 << 20
# The bytes the bulk parser accepts outside comments: anything else ("nan",
# "1_0", non-ASCII space, ...) is left to the line parser.
_BULK_BYTES = b"0123456789+-.eE: \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n]*")
# int64 holds every 18-digit index; longer ones go to the line parser.
_MAX_INDEX_DIGITS = 18


class _Refused(Exception):
    """The bulk parser does not accept this input; the line parser decides."""


def _token_bounds(buf: np.ndarray):
    """Start and end offsets of the tokens: the runs of bytes above space."""
    word = np.zeros(buf.size + 2, dtype=bool)
    np.greater(buf, 32, out=word[1:-1])
    edge = word[1:] != word[:-1]
    del word
    edges = np.flatnonzero(edge)
    return edges[0::2], edges[1::2]


def _parse_chunk(chunk: bytearray):
    """Labels, per-row pair counts, 0-based indices and values of whole lines.

    The first token of a line is its label; every other token must hold one
    colon with digits before it and text after it. The index digits and the
    colons are then blanked in place, so one `np.fromstring` reads exactly
    the labels and values, and reads one number per token only if each
    token is a number as `float` would take it. A number that overflows to
    inf is refused, so that the line parser names its line.
    """
    if b"#" in chunk:
        chunk = bytearray(_COMMENT.sub(b"", chunk))
    if chunk.translate(None, _BULK_BYTES):
        raise _Refused
    buf = np.frombuffer(chunk, dtype=np.uint8)
    starts, ends = _token_bounds(buf)
    line = np.searchsorted(np.flatnonzero(buf == 10), starts)
    is_label = np.ones(starts.size, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=is_label[1:])
    del line
    # the pair tokens, found twice: as non-label tokens and as colon holders
    colons = np.flatnonzero(buf == 58)
    pair_tok = np.flatnonzero(~is_label)
    if not np.array_equal(np.searchsorted(starts, colons, side="right") - 1, pair_tok):
        raise _Refused
    width = colons - starts[pair_tok]
    if pair_tok.size and (
        width.min() < 1
        or width.max() > _MAX_INDEX_DIGITS
        or (ends[pair_tok] - colons).min() < 2
    ):
        raise _Refused
    ntok = starts.size
    del starts, ends
    idx = np.zeros(colons.size, dtype=np.int64)
    for k in range(int(width.max(initial=0)), 0, -1):  # the digit k places before the colon
        has = width >= k
        at = colons[has] - k
        digit = buf[at] - 48
        if (digit > 9).any():
            raise _Refused
        idx *= 10
        idx[has] += digit
        buf[at] = 32
    buf[colons] = 32
    del width, colons
    if idx.size and idx.min() < 1:
        raise _Refused
    idx -= 1
    nums = np.zeros(0)
    if ntok:
        buf.flags.writeable = False
        try:
            with warnings.catch_warnings():
                # older numpy stops at unmatched text with a warning; the
                # count check below refuses that the same way
                warnings.simplefilter("ignore", DeprecationWarning)
                nums = np.fromstring(buf, sep=" ")
        except ValueError:
            raise _Refused from None
        if nums.size != ntok or not np.isfinite(nums).all():
            raise _Refused
    labels, val = nums[is_label], nums[~is_label]
    counts = np.diff(np.flatnonzero(is_label), append=ntok) - 1
    # neighbouring pairs share a row exactly when their tokens are adjacent
    same_row = np.diff(pair_tok) == 1
    if (same_row & (np.diff(idx) <= 0)).any():
        row = pair_tok - np.arange(pair_tok.size)
        order = np.lexsort((idx, row))
        idx, val = idx[order], val[order]
        if (same_row & (np.diff(idx) == 0)).any():
            raise _Refused
    return labels, counts, idx, val


def _parse_bulk(raw: bytes):
    """(labels, indptr, indices, values) of `raw`, parsed in whole-line chunks.

    Raises `_Refused` on any input that `_parse_lines` might not parse to
    the same arrays, so that the line parser decides it.
    """
    nnz_cap = raw.count(b":")
    rows_cap = raw.count(b"\n") + 1
    labels, counts = np.empty(rows_cap), np.empty(rows_cap, dtype=np.int64)
    indices, values = np.empty(nnz_cap, dtype=np.int64), np.empty(nnz_cap)
    view = memoryview(raw)
    n = nnz = pos = 0
    while pos < len(raw):
        end = len(raw)
        if end - pos > _CHUNK_BYTES:
            end = raw.rfind(b"\n", pos, pos + _CHUNK_BYTES) + 1
            if end == 0:  # a line longer than a chunk
                end = raw.find(b"\n", pos + _CHUNK_BYTES) + 1 or len(raw)
        lab, cnt, idx, val = _parse_chunk(bytearray(view[pos:end]))
        labels[n:n + lab.size] = lab
        counts[n:n + cnt.size] = cnt
        indices[nnz:nnz + idx.size] = idx
        values[nnz:nnz + val.size] = val
        n += lab.size
        nnz += idx.size
        pos = end
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts[:n], out=indptr[1:])
    return labels[:n], indptr, indices[:nnz], values[:nnz]


def _as_bytes(source) -> bytes:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        return source.encode("utf-8", "surrogatepass")
    if source[:2] == b"\x1f\x8b":
        return gzip.decompress(source)
    if source[:3] == b"BZh":
        import bz2

        return bz2.decompress(source)
    return source


def _dataset(labels, indptr, indices, values, d: int | None) -> SparseDataset:
    if not labels.size:
        raise ParseError("no data records found")
    max_idx = int(indices.max()) if indices.size else -1
    if d is None:
        if max_idx < 0:
            raise ParseError("no features present; pass an explicit feature count")
        d = max_idx + 1
    elif d < max_idx + 1:
        raise ParseError(f"feature count override {d} smaller than max index {max_idx + 1}")
    return SparseDataset(indptr=indptr, indices=indices, values=values, labels=labels, d=d)


def parse_libsvm(source, d: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: one `<label> <idx>:<val> ...` record per line.

    `source` may be a str, bytes, or binary/text file object. Indices are
    1-based in the file and stored 0-based; out-of-order pairs are sorted,
    duplicates on one line are an error, and so is a label or value that is
    not finite (nan, inf, or a number that overflows). Blank lines and `#` comment
    suffixes are skipped. By default d is the largest index seen; pass `d`
    to widen it (an override smaller than the data is an error). Gzip and
    bzip2 input are detected by magic bytes.

    Valid input is parsed in bulk with numpy; input the bulk parser refuses
    is parsed line by line, which raises `ParseError` naming the bad line.
    """
    raw = _as_bytes(source)
    try:
        parts = _parse_bulk(raw)
    except _Refused:
        parts = _parse_lines(raw)
    return _dataset(*parts, d)


def load_libsvm(path, d: int | None = None) -> SparseDataset:
    """Read a LIBSVM file (optionally gzipped) from disk."""
    with open(path, "rb") as fh:
        return parse_libsvm(fh.read(), d=d)


def serialize_libsvm(ds: SparseDataset) -> str:
    """Inverse of parse_libsvm up to float repr (exact round-trip)."""
    out = []
    for i in range(ds.n):
        idx, val = ds.row(i)
        pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val))
        out.append(f"{float(ds.labels[i])!r} {pairs}".rstrip())
    return "\n".join(out) + "\n"


def gen_gaussian(n: int, d: int, seed: int) -> SparseDataset:
    """Dense i.i.d. standard normal dataset; pure function of (n, d, seed).

    Entries come from one PCG64 stream derived from the seed, transformed
    by Box-Muller, filled row-major. Labels are zero.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = prng.generator(prng.substream(seed, prng.DOMAIN_DATA))
    flat = prng.standard_normal(rng, n * d)
    return SparseDataset.from_dense(flat.reshape(n, d))


def row_sq_norms(ds: SparseDataset) -> np.ndarray:
    """Vector of squared Euclidean row norms, length n: each row's own
    squares summed in order (0 for an empty row)."""
    rows = np.repeat(np.arange(ds.n), np.diff(ds.indptr))
    return np.bincount(rows, weights=ds.values * ds.values, minlength=ds.n)
