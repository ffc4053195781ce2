"""Row-sparse datasets: LIBSVM parsing, synthetic Gaussian data, row views.

The dataset is stored CSR-style (indptr / indices / values) with 0-based
column indices; LIBSVM input uses 1-based indices, mapped on parse. All
arrays are frozen after construction, so datasets can be shared freely
across threads.
"""

from __future__ import annotations

import gzip
import io
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
    if idx <= 0:
        raise ParseError(f"feature index must be >= 1, got {idx}", line_no)
    return idx - 1, val


def parse_libsvm(source, d: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: one `<label> <idx>:<val> ...` record per line.

    `source` may be a str, bytes, or binary/text file object. Indices are
    1-based in the file and stored 0-based; out-of-order pairs are sorted,
    duplicates on one line are an error. Blank lines and `#` comment
    suffixes are skipped. By default d is the largest index seen; pass `d`
    to widen it (an override smaller than the data is an error). Gzip and
    bzip2 input are detected by magic bytes.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        if source[:2] == b"\x1f\x8b":
            source = gzip.decompress(source)
        elif source[:3] == b"BZh":
            import bz2

            source = bz2.decompress(source)
        text = source.decode("utf-8")
    else:
        text = source

    rows, labels = [], []
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            label = float(toks[0])
        except ValueError:
            raise ParseError(f"non-numeric label {toks[0]!r}", line_no) from None
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

    if not rows:
        raise ParseError("no data records found")
    max_idx = max((int(r[0][-1]) for r in rows if r[0].size), default=-1)
    if d is None:
        if max_idx < 0:
            raise ParseError("no features present; pass an explicit feature count")
        d = max_idx + 1
    elif d < max_idx + 1:
        raise ParseError(f"feature count override {d} smaller than max index {max_idx + 1}")
    return SparseDataset.from_rows(rows, labels, d=d)


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
    """Vector of squared Euclidean row norms, length n."""
    sq = ds.values * ds.values
    csum = np.concatenate([[0.0], np.cumsum(sq)])
    return csum[ds.indptr[1:]] - csum[ds.indptr[:-1]]
