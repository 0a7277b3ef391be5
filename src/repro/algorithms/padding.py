"""Padding arbitrary system sizes up to powers of two.

CR, PCR, and the hybrids require power-of-two sizes; real workloads do
not oblige. :func:`pad_pow2` appends decoupled identity equations
(``x_j = 0``) after the last real row — the appended rows neither read nor
write the real unknowns because the boundary couplings are structurally
zero — and :func:`unpad_solution` strips them again.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..util.validation import is_power_of_two, next_power_of_two
from .pcr import Batch, _Periodic

__all__ = ["pad_pow2", "unpad_solution"]


def pad_pow2(batch: Batch) -> Tuple[Batch, int]:
    """Pad every system to the next power-of-two size.

    Returns ``(padded_batch, original_size)``. When the size is already a
    power of two the original batch is returned unchanged. Either layout;
    a shared matrix is padded once and stays shared.
    """
    n = batch.system_size
    if is_power_of_two(n):
        return batch, n
    work = _Periodic.of(batch)
    extra = next_power_of_two(n) - n

    def _pad(arr: np.ndarray, fill: float) -> np.ndarray:
        shape = list(arr.shape)
        shape[work.axis] = extra
        tail = np.full(shape, fill, dtype=arr.dtype)
        return np.concatenate([arr, tail], axis=work.axis)

    padded = _Periodic(
        _pad(work.a, 0.0),
        _pad(work.b, 1.0),
        _pad(work.c, 0.0),
        _pad(work.d, 0.0),
        axis=work.axis,
    )
    return (padded if work is batch else padded.public()), n


def unpad_solution(x: np.ndarray, original_size: int) -> np.ndarray:
    """Strip padding columns appended by :func:`pad_pow2`."""
    if x.shape[1] == original_size:
        return x
    return np.ascontiguousarray(x[:, :original_size])
