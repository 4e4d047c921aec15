"""NumPy fallback kernels: always available, no compiled code required.

These are the batch formulations the dispatch layer uses when the
native extension is absent (or disabled via ``REPRO_NO_NATIVE=1``).
They hold the GIL but amortise Python-level dispatch over whole
batches:

* Minkowski / Hamming are plain broadcast reductions;
* Levenshtein runs the two-row DP *across the entire batch at once*,
  in place and in int16 whenever the lengths allow — the Python loop
  iterates over the query's characters, and the in-row dependency
  ``cur[j] = min(t[j], cur[j-1] + 1)`` becomes a running minimum of the
  shifted row ``t[j] - j`` — so a batch of 1 000 candidate words costs
  ~``len(query)`` rounds of vector operations instead of a million
  Python steps.  The bounded variant first drops candidates whose
  length alone proves them out of range;
* Jaccard loops over Python's C-implemented set intersection (there is
  no profitable dense formulation for sparse sets).

All integer-valued results are exact — the conformance suite asserts
bit-equality against both the scalar reference and the native kernels.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .encode import codepoints, encode_strings

__all__ = [
    "minkowski_pairwise",
    "minkowski_rowwise",
    "hamming_pairwise",
    "hamming_rowwise",
    "jaccard_scalar",
    "levenshtein_one_to_many",
    "levenshtein_one_to_many_bounded",
    "levenshtein_rowwise",
]

#: Batches at least this wide resolve the DP's in-row dependency with one
#: vector op per candidate position; narrower ones use a single
#: ``np.minimum.accumulate``, whose per-element cost only loses once the
#: batch amortises the per-position calls.
_COLUMN_LOOP_MIN = 256


def minkowski_pairwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """``(m, n)`` matrix of L_p distances between float64 matrix rows."""
    diff = np.abs(x[:, None, :] - y[None, :, :])
    if np.isinf(p):
        return diff.max(axis=2, initial=0.0)
    if p == 1.0:
        return diff.sum(axis=2)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=2))
    return (diff**p).sum(axis=2) ** (1.0 / p)


def minkowski_rowwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Aligned L_p distances between float64 matrix rows."""
    diff = np.abs(x - y)
    if np.isinf(p):
        return diff.max(axis=1, initial=0.0)
    if p == 1.0:
        return diff.sum(axis=1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=1))
    return (diff**p).sum(axis=1) ** (1.0 / p)


def hamming_pairwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    """``(m, n)`` Hamming distances between code-matrix rows."""
    diff = (x[:, None, :] != y[None, :, :]).sum(axis=2).astype(np.float64)
    if normalized and x.shape[1]:
        diff /= x.shape[1]
    return diff


def hamming_rowwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    """Aligned Hamming distances between code-matrix rows."""
    diff = (x != y).sum(axis=1).astype(np.float64)
    if normalized and x.shape[1]:
        diff /= x.shape[1]
    return diff


def jaccard_scalar(a: Any, b: Any) -> float:
    """One Jaccard distance via Python's C-implemented set operations."""
    sa: Set[Any] = set(a)
    sb: Set[Any] = set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return 1.0 - len(sa & sb) / union


def _pad_codepoints(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad strings into a ``(width, n)`` int32 codepoint matrix (pad = -1).

    Column ``k`` holds string ``k``, so a DP row operation over the batch
    touches contiguous memory.  The CSR data from :func:`encode_strings`
    lands with one boolean-mask scatter (the transposed view iterates in
    string-major order, matching the CSR layout); int32 holds every
    codepoint, non-BMP ones included.
    """
    data, offsets = encode_strings(strings)
    lengths = np.diff(offsets)
    width = int(lengths.max()) if len(strings) else 0
    columns = np.full((width, len(strings)), -1, dtype=np.int32)
    columns.T[np.arange(width) < lengths[:, None]] = data
    return columns, lengths, width


def _dp_dtype(rows: int, width: int) -> type:
    """The narrowest safe DP dtype: every state value lies in
    ``[-width - 1, rows + 1]``."""
    if rows + width < np.iinfo(np.int16).max:
        return np.int16
    return np.int64


def _edit_dp(
    columns: np.ndarray,
    query_rows: Iterable[Any],
    dtype: type,
    on_row: Optional[Callable[[int, np.ndarray], None]] = None,
) -> np.ndarray:
    """Run the batched edit DP down ``query_rows``; return the final state.

    ``columns`` is a ``(width, n)`` padded codepoint matrix and each query
    row a codepoint (or an ``(n,)`` vector of them, one per candidate).
    The state is kept *shifted*, ``S[j] = D[i][j] - j``, which turns the
    recurrence into ``C[j] = min(S[j-1] - eq[j], S[j] + 1)`` followed by
    a running minimum down ``j`` — four in-place vector ops plus the
    running minimum per query character.  ``D[i][len]`` is
    ``S[len] + len``.  ``on_row(i, state)`` sees the state after row ``i``.
    """
    width, n = columns.shape
    state = np.zeros((width + 1, n), dtype=dtype)
    scratch = np.empty_like(state)
    eq = np.empty((width, n), dtype=bool)
    column_loop = n >= _COLUMN_LOOP_MIN
    for i, char in enumerate(query_rows, start=1):
        np.equal(columns, char, out=eq)
        np.subtract(state[:-1], eq, out=scratch[1:])
        np.add(state[1:], 1, out=state[1:])
        np.minimum(scratch[1:], state[1:], out=scratch[1:])
        scratch[0] = i
        if column_loop:
            for j in range(1, width + 1):
                np.minimum(scratch[j], scratch[j - 1], out=scratch[j])
            state, scratch = scratch, state
        else:
            np.minimum.accumulate(scratch, axis=0, out=state)
        if on_row is not None:
            on_row(i, state)
    return state


def levenshtein_one_to_many(query: str, ys: Sequence[str]) -> np.ndarray:
    """Edit distances from ``query`` to each candidate, batched in numpy."""
    columns, lengths, width = _pad_codepoints(ys)
    q = codepoints(query).astype(np.int32)
    state = _edit_dp(columns, q, _dp_dtype(len(q), width))
    return (state[lengths, np.arange(len(ys))] + lengths).astype(np.float64)


def levenshtein_one_to_many_bounded(
    query: str, ys: Sequence[str], bound: int
) -> np.ndarray:
    """Edit distances where ``<= bound``, ``inf`` elsewhere.

    ``|len(query) - len(y)|`` is a lower bound on the distance, so
    candidates whose length differs by more than ``bound`` are answered
    ``inf`` without a DP; the rest go through one batched DP.
    """
    out = np.full(len(ys), np.inf)
    lengths = np.fromiter(map(len, ys), dtype=np.int64, count=len(ys))
    keep = np.flatnonzero(np.abs(lengths - len(query)) <= bound)
    if keep.size:
        exact = levenshtein_one_to_many(query, [ys[k] for k in keep])
        out[keep] = np.where(exact <= bound, exact, np.inf)
    return out


def levenshtein_rowwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """Aligned edit distances, batched: iterate over the longest left
    string's characters while snapshotting each pair at its own length."""
    left, left_len, left_width = _pad_codepoints(xs)
    right, right_len, right_width = _pad_codepoints(ys)
    out = right_len.astype(np.float64)  # pairs with an empty left string

    def snapshot(i: int, state: np.ndarray) -> None:
        done = np.flatnonzero(left_len == i)
        if done.size:
            ends = right_len[done]
            out[done] = state[ends, done] + ends

    _edit_dp(
        right, left, _dp_dtype(left_width, right_width), on_row=snapshot
    )
    return out


def levenshtein_pairwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` edit distances: one batched one-to-many per left string."""
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.float64)
    rows: List[np.ndarray] = [levenshtein_one_to_many(x, ys) for x in xs]
    return np.vstack(rows)
