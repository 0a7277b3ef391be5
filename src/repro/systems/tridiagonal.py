"""Tridiagonal system containers.

A tridiagonal system ``A x = d`` is stored as four coefficient vectors per
system, following the convention of the paper (and of cuSPARSE ``gtsv``):

- ``a`` — sub-diagonal, with ``a[0]`` unused and fixed to 0,
- ``b`` — main diagonal,
- ``c`` — super-diagonal, with ``c[-1]`` unused and fixed to 0,
- ``d`` — right-hand side.

Row ``i`` of the system reads ``a[i] * x[i-1] + b[i] * x[i] + c[i] * x[i+1]
= d[i]``.

:class:`TridiagonalBatch` stores ``m`` independent systems of equal size
``n`` as four ``(m, n)`` arrays. Batches are the unit of work for every
solver in this library: the paper's workloads ("1K×1K", "1×2M", ...) map
directly onto batch shapes, and vectorised NumPy kernels operate on whole
batches at once.

One matrix, many right-hand sides: when ``a``, ``b`` and ``c`` all have a
stride-0 system axis — ``np.broadcast_to`` of one ``(1, n)`` row, as ADI
sweeps and SPIKE's three right-hand sides build them — the batch is a
*shared-matrix* batch. The shape is the signal; there is no flag. The
batch keeps those views (corner normalisation happens on the one row),
``nbytes`` stays the logical size, and the solvers reduce the matrix
once instead of once per system while producing the same bits as the
tiled batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..util.errors import ShapeError
from ..util.validation import check_dtype, check_same_shape

__all__ = ["TridiagonalSystem", "TridiagonalBatch"]


def _shares_matrix(arrays, axis: int) -> bool:
    """True when every array repeats one slice along the system ``axis``.

    That is a stride-0 axis of length > 1: ``np.broadcast_to`` of one
    ``(1, n)`` row (row-major) or ``(n, 1)`` column (interleaved).
    """
    return all(arr.shape[axis] > 1 and arr.strides[axis] == 0 for arr in arrays)


def _normalise(a, b, c, d, axis: int):
    """Zero the unused corners and make the arrays contiguous.

    ``axis`` is the system axis (0 row-major, 1 interleaved). A shared
    matrix stays a broadcast: its corners are zeroed on the one slice it
    repeats. Copies only when needed.
    """
    shared = _shares_matrix((a, b, c), axis)
    if shared:
        one = (slice(None),) * axis + (slice(0, 1),)
        a, b, c = a[one], b[one], c[one]
    first = (slice(None),) * (1 - axis) + (0,)
    last = (slice(None),) * (1 - axis) + (-1,)
    if a[first].any():
        a = a.copy()
        a[first] = 0
    if c[last].any():
        c = c.copy()
        c[last] = 0
    a, b, c = (
        np.broadcast_to(np.ascontiguousarray(x), d.shape) if shared
        else np.ascontiguousarray(x)
        for x in (a, b, c)
    )
    return a, b, c, np.ascontiguousarray(d)


def _as_2d(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class TridiagonalBatch:
    """A batch of ``m`` independent tridiagonal systems of size ``n``.

    Arrays are ``(m, n)`` and share a dtype. Construction validates shapes
    and zeroes the unused corner entries (``a[:, 0]`` and ``c[:, -1]``) so
    downstream algorithms may rely on them.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a = _as_2d(self.a, "a")
        b = _as_2d(self.b, "b")
        c = _as_2d(self.c, "c")
        d = _as_2d(self.d, "d")
        check_same_shape([a, b, c, d], ["a", "b", "c", "d"])
        dtype = check_dtype(b, "b")
        for name, arr in (("a", a), ("c", c), ("d", d)):
            if arr.dtype != dtype:
                raise ShapeError(
                    f"{name} has dtype {arr.dtype}, expected {dtype} (same as b)"
                )
        if b.shape[1] < 1:
            raise ShapeError("systems must have at least one equation")
        for name, arr in zip("abcd", _normalise(a, b, c, d, 0)):
            object.__setattr__(self, name, arr)

    # -- shape ------------------------------------------------------------

    @property
    def num_systems(self) -> int:
        """Number of independent systems ``m``."""
        return self.b.shape[0]

    @property
    def system_size(self) -> int:
        """Number of equations per system ``n``."""
        return self.b.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """``(m, n)``: (number of systems, equations per system)."""
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
        """Total logical bytes of the four coefficient arrays.

        A shared matrix counts at full ``(m, n)`` size, so device-fit
        checks and pricing see the same batch either way.
        """
        return self.a.nbytes + self.b.nbytes + self.c.nbytes + self.d.nbytes

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_single(
        cls, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
    ) -> "TridiagonalBatch":
        """Build a batch holding one system from 1-D coefficient vectors."""
        return cls(
            np.asarray(a)[None, :],
            np.asarray(b)[None, :],
            np.asarray(c)[None, :],
            np.asarray(d)[None, :],
        )

    @classmethod
    def stack(cls, batches: "list[TridiagonalBatch]") -> "TridiagonalBatch":
        """Concatenate batches of equal system size along the system axis."""
        if not batches:
            raise ShapeError("cannot stack an empty list of batches")
        sizes = {batch.system_size for batch in batches}
        if len(sizes) != 1:
            raise ShapeError(f"cannot stack batches of differing sizes {sorted(sizes)}")
        return cls(
            np.concatenate([t.a for t in batches]),
            np.concatenate([t.b for t in batches]),
            np.concatenate([t.c for t in batches]),
            np.concatenate([t.d for t in batches]),
        )

    def copy(self) -> "TridiagonalBatch":
        """A deep copy (solvers that modify in place should work on copies)."""
        return TridiagonalBatch(
            self.a.copy(), self.b.copy(), self.c.copy(), self.d.copy()
        )

    def astype(self, dtype) -> "TridiagonalBatch":
        """Cast the batch to another floating dtype."""
        dtype = np.dtype(dtype)
        return TridiagonalBatch(
            self.a.astype(dtype),
            self.b.astype(dtype),
            self.c.astype(dtype),
            self.d.astype(dtype),
        )

    def with_rhs(self, d: np.ndarray) -> "TridiagonalBatch":
        """Same matrix, new right-hand side(s)."""
        d = _as_2d(np.asarray(d, dtype=self.dtype), "d")
        if d.shape != self.shape:
            raise ShapeError(f"d has shape {d.shape}, expected {self.shape}")
        return TridiagonalBatch(self.a, self.b, self.c, d)

    # -- indexing ----------------------------------------------------------

    def system(self, i: int) -> "TridiagonalSystem":
        """View of system ``i`` as a :class:`TridiagonalSystem`."""
        return TridiagonalSystem(self.a[i], self.b[i], self.c[i], self.d[i])

    def __len__(self) -> int:
        return self.num_systems

    def __iter__(self) -> Iterator["TridiagonalSystem"]:
        for i in range(self.num_systems):
            yield self.system(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TridiagonalBatch(m={self.num_systems}, n={self.system_size}, "
            f"dtype={self.dtype})"
        )

    # -- linear algebra -----------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` per system; ``x`` is ``(m, n)`` (or ``(n,)``).

        Used by residual checks and property tests.
        """
        x = _as_2d(np.asarray(x, dtype=self.dtype), "x")
        if x.shape != self.shape:
            raise ShapeError(f"x has shape {x.shape}, expected {self.shape}")
        out = self.b * x
        out[:, 1:] += self.a[:, 1:] * x[:, :-1]
        out[:, :-1] += self.c[:, :-1] * x[:, 1:]
        return out

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Per-system relative residual ``||A x - d|| / max(||d||, tiny)``."""
        r = self.matvec(x) - self.d
        num = np.linalg.norm(r, axis=1)
        den = np.maximum(np.linalg.norm(self.d, axis=1), np.finfo(self.dtype).tiny)
        return num / den

    def to_dense(self) -> np.ndarray:
        """Dense ``(m, n, n)`` matrices — for tests on small systems only."""
        m, n = self.shape
        out = np.zeros((m, n, n), dtype=self.dtype)
        idx = np.arange(n)
        out[:, idx, idx] = self.b
        if n > 1:
            out[:, idx[1:], idx[:-1]] = self.a[:, 1:]
            out[:, idx[:-1], idx[1:]] = self.c[:, :-1]
        return out


@dataclass(frozen=True)
class TridiagonalSystem:
    """A single tridiagonal system — a thin 1-D convenience wrapper.

    Most of the library operates on :class:`TridiagonalBatch`; this class
    exists for ergonomic single-system use (examples, docs) and converts
    cheaply via :meth:`as_batch`.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ShapeError(f"{name} must be 1-D, got ndim={arr.ndim}")
            object.__setattr__(self, name, arr)
        check_same_shape(
            [self.a, self.b, self.c, self.d], ["a", "b", "c", "d"]
        )

    @property
    def size(self) -> int:
        """Number of equations ``n``."""
        return self.b.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the main diagonal (batch construction enforces common)."""
        return self.b.dtype

    def as_batch(self) -> TridiagonalBatch:
        """Promote to a one-system :class:`TridiagonalBatch`."""
        return TridiagonalBatch.from_single(self.a, self.b, self.c, self.d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a 1-D ``x``."""
        return self.as_batch().matvec(np.asarray(x)[None, :])[0]

    def residual(self, x: np.ndarray) -> float:
        """Relative residual of a candidate solution ``x``."""
        return float(self.as_batch().residual(np.asarray(x)[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TridiagonalSystem(n={self.size}, dtype={self.dtype})"
