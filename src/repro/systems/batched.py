"""Interleaved (structure-of-arrays) batch layout.

:class:`~repro.systems.tridiagonal.TridiagonalBatch` stores ``m`` systems
of size ``n`` row-major: the four coefficient arrays are ``(m, n)``, so
equation ``i`` of one system sits ``n`` elements away from equation
``i+1`` — fine for host algorithms sweeping along a system, but the
worst possible layout for a GPU batch, where a warp wants to touch
*equation i of 32 adjacent systems* in one transaction.

:class:`BatchedTridiagonal` is the transposed view the batched solvers of
Gloster et al. (arXiv:1909.04539) and Carroll et al. (arXiv:2107.05395)
use: arrays are ``(n, m)``, all systems' equation ``i`` adjacent, so
every sweep over the equation axis is a fully coalesced pass over the
system axis. ``interleave``/``deinterleave`` convert between the two
layouts and round-trip bit-exactly; since both layouts hold the same
floats per logical element, every elementwise algorithm produces
bit-identical values in either layout. A shared matrix (stride-0
system axis) stays a broadcast view through both conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..util.errors import ShapeError
from ..util.validation import check_dtype, check_same_shape
from .tridiagonal import TridiagonalBatch, _normalise

__all__ = ["BatchedTridiagonal", "interleave", "deinterleave"]


@dataclass(frozen=True)
class BatchedTridiagonal:
    """``m`` tridiagonal systems of size ``n`` in interleaved SoA layout.

    Arrays are ``(n, m)``: row ``i`` holds equation ``i`` of every
    system, column ``s`` holds system ``s``. The same corner convention
    as :class:`TridiagonalBatch` applies (``a[0, :]`` and ``c[-1, :]``
    are unused and fixed to 0).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 2:
                raise ShapeError(
                    f"{name} must be 2-D (n, m) interleaved, got ndim={arr.ndim}"
                )
            arrays[name] = arr
        check_same_shape(list(arrays.values()), list(arrays))
        dtype = check_dtype(arrays["b"], "b")
        for name in ("a", "c", "d"):
            if arrays[name].dtype != dtype:
                raise ShapeError(
                    f"{name} has dtype {arrays[name].dtype}, expected {dtype} "
                    "(same as b)"
                )
        if arrays["b"].shape[0] < 1:
            raise ShapeError("systems must have at least one equation")
        normalised = _normalise(*(arrays[name] for name in "abcd"), 1)
        for name, arr in zip("abcd", normalised):
            object.__setattr__(self, name, arr)

    # -- shape ------------------------------------------------------------

    @property
    def num_systems(self) -> int:
        """Number of independent systems ``m`` (the fast axis)."""
        return self.b.shape[1]

    @property
    def system_size(self) -> int:
        """Number of equations per system ``n`` (the slow axis)."""
        return self.b.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(m, n)`` — matching :class:`TridiagonalBatch`."""
        return (self.num_systems, self.system_size)

    @property
    def layout_shape(self) -> Tuple[int, int]:
        """Physical ``(n, m)`` array shape."""
        return self.b.shape

    @property
    def total_equations(self) -> int:
        """Total equations in the batch, ``m * n``."""
        return self.b.size

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.b.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes of the four coefficient arrays."""
        return self.a.nbytes + self.b.nbytes + self.c.nbytes + self.d.nbytes

    # -- layout conversion --------------------------------------------------

    @classmethod
    def interleave(cls, batch: TridiagonalBatch) -> "BatchedTridiagonal":
        """Transpose a row-major batch into the interleaved layout."""
        return cls(batch.a.T, batch.b.T, batch.c.T, batch.d.T)

    @classmethod
    def interleave_all(
        cls, batches: "List[TridiagonalBatch]"
    ) -> "BatchedTridiagonal":
        """Interleave a ragged list of equal-``n`` batches into one.

        System counts may differ per batch (the service's merged groups
        are exactly this shape); systems land in list order along the
        fast axis.
        """
        if not batches:
            raise ShapeError("cannot interleave an empty list of batches")
        sizes = {batch.system_size for batch in batches}
        if len(sizes) != 1:
            raise ShapeError(
                f"cannot interleave batches of differing sizes {sorted(sizes)}"
            )
        return cls(
            np.concatenate([t.a for t in batches]).T,
            np.concatenate([t.b for t in batches]).T,
            np.concatenate([t.c for t in batches]).T,
            np.concatenate([t.d for t in batches]).T,
        )

    def deinterleave(self) -> TridiagonalBatch:
        """Transpose back to the row-major :class:`TridiagonalBatch`."""
        return TridiagonalBatch(self.a.T, self.b.T, self.c.T, self.d.T)

    def __len__(self) -> int:
        return self.num_systems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedTridiagonal(m={self.num_systems}, n={self.system_size}, "
            f"dtype={self.dtype}, layout=interleaved)"
        )


def interleave(batch: TridiagonalBatch) -> BatchedTridiagonal:
    """Functional alias for :meth:`BatchedTridiagonal.interleave`."""
    return BatchedTridiagonal.interleave(batch)


def deinterleave(batched: BatchedTridiagonal) -> TridiagonalBatch:
    """Functional alias for :meth:`BatchedTridiagonal.deinterleave`."""
    return batched.deinterleave()
