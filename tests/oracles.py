"""Independent reference implementations.

Brute-force oracles deliberately avoid the dynamic-programming formulations
used by the package so agreement is evidence, not tautology. They are
exponential or memoized-recursive and only usable on tiny inputs.

Frozen oracles are verbatim copies of scalar package functions as they stood
before those were vectorized. The vectorized code must agree with them
exactly (identical outputs, ``==`` not approx), on any input size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from singprep.errors import InputError


def wer_oracle(ref: list[str], hyp: list[str]) -> float | None:
    """Edit distance by recursive case analysis over the last token."""
    if not ref:
        return None
    ref_t = tuple(ref)
    hyp_t = tuple(hyp)

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = dist(i - 1, j - 1) + (ref_t[i - 1] != hyp_t[j - 1])
        dele = dist(i - 1, j) + 1
        ins = dist(i, j - 1) + 1
        return min(sub, dele, ins)

    return dist(len(ref_t), len(hyp_t)) / len(ref_t)


def dtw_oracle_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum path cost by exhaustive enumeration of all monotone paths.

    Paths start at (0, 0), end at (n-1, m-1), and move by (1,0), (0,1) or
    (1,1). Cost of a cell is the Euclidean distance between the frames.
    Exponential: keep inputs at 6x6 or smaller.
    """
    n, m = len(a), len(b)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    best = [np.inf]

    def walk(i: int, j: int, cost: float) -> None:
        cost += d[i, j]
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def dtw_align_oracle(a, b) -> list[tuple[int, int]]:
    """Frozen scalar DTW: row-by-row accumulation loop, then traceback."""
    if len(a) == 0 or len(b) == 0:
        raise InputError("cannot align empty frame sequences")
    av, bv = a.frames, b.frames
    d = np.sqrt(
        np.maximum(
            np.sum(av * av, axis=1)[:, None]
            - 2.0 * (av @ bv.T)
            + np.sum(bv * bv, axis=1)[None, :],
            0.0,
        )
    )
    n, m = d.shape
    acc = np.empty((n, m))
    acc[0] = np.cumsum(d[0])
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + d[i, 0]
        prev = acc[i - 1]
        row = acc[i]
        for j in range(1, m):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = d[i, j] + best

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i or j:
        if i and j:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        elif i:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path
