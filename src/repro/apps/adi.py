"""Alternating-direction-implicit (ADI) diffusion integrators.

The paper's headline application class: every ADI half-step turns one
spatial direction implicit, producing a large batch of independent
tridiagonal systems. :class:`AdiDiffusion2D` packages the
Peaceman-Rachford scheme on a rectangular grid with Dirichlet boundaries,
driving all sweeps through a :class:`~repro.core.solver.MultiStageSolver`
and accumulating simulated GPU time across the run — the measurement an
application would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..core.solver import MultiStageSolver
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError, ShapeError

__all__ = ["AdiDiffusion2D", "AdiDiffusion3D", "AdiStepReport"]


def _implicit_batch(r: float, rhs: np.ndarray) -> TridiagonalBatch:
    """``(1 + 2r) u - r (u_- + u_+) = rhs`` along every row of ``rhs``.

    Every grid line shares one constant matrix, so its three diagonals
    are ``(1, n)`` rows broadcast to the batch: a shared-matrix batch,
    which the solver reduces once instead of once per line.
    """
    m, n = rhs.shape
    a = np.full((1, n), -r)
    b = np.full((1, n), 1.0 + 2.0 * r)
    c = np.full((1, n), -r)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    a, b, c = (np.broadcast_to(x, (m, n)) for x in (a, b, c))
    return TridiagonalBatch(a, b, c, rhs)


@dataclass
class AdiStepReport:
    """Accumulated accounting for an integration run."""

    steps: int = 0
    sweeps: int = 0
    simulated_ms: float = 0.0
    systems_solved: int = 0

    def merge_sweep(self, num_systems: int, simulated_ms: float) -> None:
        """Record one implicit sweep's worth of tridiagonal work."""
        self.sweeps += 1
        self.systems_solved += num_systems
        self.simulated_ms += simulated_ms


class AdiDiffusion2D:
    """Peaceman-Rachford ADI for ``u_t = alpha ∇²u`` on a rectangle.

    The field lives on the interior of an ``(ny, nx)`` grid with
    homogeneous Dirichlet boundaries and uniform spacing ``dx``. Each
    :meth:`step` performs the x-implicit then y-implicit half-steps,
    solving ``ny`` and ``nx`` tridiagonal systems respectively.
    """

    def __init__(
        self,
        shape,
        *,
        alpha: float = 1.0,
        dx: float = 1.0,
        dt: float = 0.1,
        solver: Union[MultiStageSolver, str, None] = None,
    ):
        ny, nx = shape
        if ny < 2 or nx < 2:
            raise ConfigurationError("grid must be at least 2x2")
        if alpha <= 0 or dx <= 0 or dt <= 0:
            raise ConfigurationError("alpha, dx and dt must be positive")
        self.shape = (int(ny), int(nx))
        self.alpha = float(alpha)
        self.dx = float(dx)
        self.dt = float(dt)
        self.r = alpha * dt / (2.0 * dx * dx)
        if solver is None or isinstance(solver, str):
            solver = MultiStageSolver(solver or "gtx470", "dynamic")
        self.solver = solver
        self.report = AdiStepReport()

    # -- building blocks -----------------------------------------------------

    def _implicit_sweep(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(1 + 2r) u - r (u_- + u_+) = rhs`` along each row."""
        m = rhs.shape[0]
        result = self.solver.solve(_implicit_batch(self.r, rhs))
        self.report.merge_sweep(m, result.simulated_ms)
        return result.x

    def _explicit_half(self, field: np.ndarray) -> np.ndarray:
        """Apply ``(1 + r δ²)`` along rows with zero boundaries."""
        out = (1.0 - 2.0 * self.r) * field
        out[:, 1:] += self.r * field[:, :-1]
        out[:, :-1] += self.r * field[:, 1:]
        return out

    # -- public API -------------------------------------------------------------

    def step(self, u: np.ndarray) -> np.ndarray:
        """Advance the interior field one ``dt`` (returns a new array)."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.shape:
            raise ShapeError(f"field has shape {u.shape}, expected {self.shape}")
        # x-implicit (rows are systems), y-explicit.
        u_half = self._implicit_sweep(self._explicit_half(u.T).T)
        # y-implicit (transpose so columns become systems), x-explicit.
        u_new = self._implicit_sweep(self._explicit_half(u_half).T).T
        self.report.steps += 1
        return u_new

    def run(self, u: np.ndarray, steps: int) -> np.ndarray:
        """Advance ``steps`` time steps."""
        for _ in range(int(steps)):
            u = self.step(u)
        return u

    def analytic_mode_decay(self, kx: int, ky: int, t: float) -> float:
        """Exact decay factor of the ``(kx, ky)`` sine mode after time ``t``
        on the continuous domain implied by ``dx`` and the grid shape."""
        ny, nx = self.shape
        lx = self.dx * (nx + 1)
        ly = self.dx * (ny + 1)
        lam = self.alpha * np.pi**2 * ((kx / lx) ** 2 + (ky / ly) ** 2)
        return float(np.exp(-lam * t))


class AdiDiffusion3D:
    """Douglas-Rachford ADI for ``u_t = alpha ∇²u`` on a 3-D box.

    The Sakharnykh-class workload from the paper's introduction: each
    time step runs three directional sweeps, every sweep a batch of
    thousands of tridiagonal systems (one per grid line). Unconditionally
    stable, first-order in time. Homogeneous Dirichlet boundaries.
    """

    def __init__(
        self,
        shape,
        *,
        alpha: float = 1.0,
        dx: float = 1.0,
        dt: float = 0.1,
        solver: Union[MultiStageSolver, str, None] = None,
    ):
        nz, ny, nx = shape
        if min(nz, ny, nx) < 2:
            raise ConfigurationError("grid must be at least 2 in every axis")
        if alpha <= 0 or dx <= 0 or dt <= 0:
            raise ConfigurationError("alpha, dx and dt must be positive")
        self.shape = (int(nz), int(ny), int(nx))
        self.alpha = float(alpha)
        self.dx = float(dx)
        self.dt = float(dt)
        self.r = alpha * dt / (dx * dx)
        if solver is None or isinstance(solver, str):
            solver = MultiStageSolver(solver or "gtx470", "dynamic")
        self.solver = solver
        self.report = AdiStepReport()

    @staticmethod
    def _second_difference(field: np.ndarray, axis: int) -> np.ndarray:
        """``δ² field`` along ``axis`` with zero Dirichlet boundaries."""
        out = -2.0 * field
        src = np.moveaxis(field, axis, -1)
        dst = np.moveaxis(out, axis, -1)
        dst[..., 1:] += src[..., :-1]
        dst[..., :-1] += src[..., 1:]
        return out

    def _implicit_axis(self, rhs: np.ndarray, axis: int) -> np.ndarray:
        """Solve ``(1 - r δ²) u = rhs`` along ``axis`` for the whole grid."""
        moved = np.moveaxis(rhs, axis, -1)
        lead_shape = moved.shape[:-1]
        n = moved.shape[-1]
        flat = np.ascontiguousarray(moved).reshape(-1, n)
        m = flat.shape[0]
        result = self.solver.solve(_implicit_batch(self.r, flat))
        self.report.merge_sweep(m, result.simulated_ms)
        return np.moveaxis(result.x.reshape(lead_shape + (n,)), -1, axis)

    def step(self, u: np.ndarray) -> np.ndarray:
        """Advance one ``dt`` with the Douglas-Rachford splitting."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.shape:
            raise ShapeError(f"field has shape {u.shape}, expected {self.shape}")
        r = self.r
        d2z = self._second_difference(u, 0)
        d2y = self._second_difference(u, 1)
        # Douglas-Gunn stabilising-correction sweeps (θ = 1):
        # (1 - r δx²) u*   = (1 + r δy² + r δz²) u
        u_star = self._implicit_axis(u + r * (d2y + d2z), 2)
        # (1 - r δy²) u**  = u* - r δy² u
        u_star2 = self._implicit_axis(u_star - r * d2y, 1)
        # (1 - r δz²) u^n+1 = u** - r δz² u
        u_new = self._implicit_axis(u_star2 - r * d2z, 0)
        self.report.steps += 1
        return u_new

    def run(self, u: np.ndarray, steps: int) -> np.ndarray:
        """Advance ``steps`` time steps."""
        for _ in range(int(steps)):
            u = self.step(u)
        return u

    def analytic_mode_decay(self, k: int, t: float) -> float:
        """Decay factor of the fundamental-(k,k,k) mode on the cube."""
        nz, ny, nx = self.shape
        lam = self.alpha * np.pi**2 * (
            (k / (self.dx * (nx + 1))) ** 2
            + (k / (self.dx * (ny + 1))) ** 2
            + (k / (self.dx * (nz + 1))) ** 2
        )
        return float(np.exp(-lam * t))
