"""Lowering: plans become instruction programs.

:func:`lower_solve_plan` turns a :class:`~repro.core.planner.SolvePlan`
into a single-device ``solve`` program — the Figure-1 staged workflow
spelled out as steps. :func:`lower_dist_plan` turns a
:class:`~repro.dist.plan.DistPlan` into a multi-device ``dist`` program:
the same local solve fragments placed per device, plus the transfers,
the SPIKE reduced solve, and the reconstruction, with dependency edges
and resource claims encoding the overlap structure the engine's list
scheduler prices.

Every lowering runs the default pass pipeline, so zero-step splits and
zero-byte transfers never reach the engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from ..util.validation import next_power_of_two
from .engine import Engine
from .instructions import (
    OnChipSolve,
    Pad,
    Program,
    Reconstruct,
    ReducedSolve,
    SplitBlock,
    SplitCoop,
    Step,
    Transfer,
    Unpad,
    Unsplit,
)
from .passes import run_default_passes

__all__ = ["lower_solve_plan", "lower_dist_plan", "concat_solve_programs"]

_SOLVE_STAGES = ("stage1_coop_pcr", "stage2_global_pcr", "stage3_pcr_thomas")

# Values exchanged per system in rows mode (see repro.dist.solver): six
# boundary values out (four spike, two data) and two correction values
# coming back.
_BOUNDARY_VALUES = 6.0
_CORRECTION_VALUES = 2.0

# Approx (truncated-SPIKE) mode moves only neighbour-to-neighbour
# traffic: a chunk sends its trailing (y_last, v_last) pair one device
# to the right, and the interface owner sends the single boundary value
# t_i back. No boundary data ever reaches device 0.
_TIP_VALUES = 2.0
_APPROX_CORRECTION_VALUES = 1.0


def _solve_steps(
    plan,
    *,
    device: int = 0,
    base: int = 0,
    deps: Tuple[int, ...] = (),
    stages: Tuple[str, str, str] = _SOLVE_STAGES,
    marker_stage: str = "",
) -> List[Step]:
    """The staged-solve fragment for one local plan, chained internally.

    ``base`` is the index the first emitted step will occupy in the
    enclosing program; ``deps`` feeds the fragment's first step.
    """
    m, n = plan.num_systems, plan.system_size
    steps: List[Step] = []

    def add(op, *, engine: str = "compute", stage: str, shape) -> None:
        prev = (base + len(steps) - 1,) if steps else tuple(deps)
        steps.append(
            Step(
                op=op,
                device=device,
                engine=engine,
                stage=stage,
                shape=shape,
                deps=prev,
            )
        )

    add(Pad(n), stage=marker_stage, shape=(m, n))
    add(SplitCoop(plan.stage1_steps), stage=stages[0], shape=(m, n))
    add(
        SplitBlock(plan.stage2_steps, start_stride=1 << plan.stage1_steps),
        stage=stages[1],
        shape=(plan.systems_entering_stage2, n >> plan.stage1_steps),
    )
    add(
        OnChipSolve(plan.thomas_switch, plan.variant, plan.stride),
        stage=stages[2],
        shape=(plan.systems_entering_stage3, plan.stage3_system_size),
    )
    add(Unsplit(plan.stage2_steps), stage=marker_stage, shape=(m, n))
    add(Unsplit(plan.stage1_steps), stage=marker_stage, shape=(m, n))
    add(Unpad(), stage=marker_stage, shape=(m, n))
    return steps


def lower_solve_plan(plan, device, dtype_size: int, *, fuse: bool = False) -> Program:
    """Lower a single-device :class:`SolvePlan` to a ``solve`` program.

    With ``fuse=True`` the batched-fusion pass rewrites the staged chain
    into interleaved-layout sweeps (see
    :func:`repro.ir.passes.fuse_batched`); solutions are bit-identical.
    """
    steps = _solve_steps(plan)
    program = Program(
        kind="solve",
        label=device.name,
        device_names=(device.name,),
        dtype_size=dtype_size,
        num_systems=plan.num_systems,
        system_size=plan.system_size,
        steps=tuple(steps),
    )
    return run_default_passes(program, fuse=fuse)


def concat_solve_programs(programs, *, fuse: bool = False) -> Program:
    """Concatenate same-device ``solve`` programs into one program.

    Each input program's steps are appended unchanged (dependency
    indices rebased), so the result prices exactly as N back-to-back
    interpretations — the per-request baseline the service would run
    without grouping. With ``fuse=True`` the fusion pass then collapses
    adjacent same-signature fragments into single vectorised sweeps,
    which is the whole point: N small solves become one batched solve.

    All inputs must be ``solve`` programs on the same device with the
    same dtype size and system size.
    """
    from ..util.errors import PlanError

    programs = list(programs)
    if not programs:
        raise PlanError("cannot concatenate zero programs")
    first = programs[0]
    steps: List[Step] = []
    total = 0
    for program in programs:
        if program.kind != "solve":
            raise PlanError("only solve programs can be concatenated")
        if (
            program.device_names != first.device_names
            or program.dtype_size != first.dtype_size
            or program.system_size != first.system_size
        ):
            raise PlanError(
                "concatenated programs must share device, dtype, and size"
            )
        base = len(steps)
        for step in program.steps:
            steps.append(
                replace(step, deps=tuple(base + d for d in step.deps))
            )
        total += program.num_systems
    merged = replace(
        first, num_systems=total, steps=tuple(steps)
    )
    return run_default_passes(merged, fuse=fuse)


def _local_fragment(
    steps: List[Step], plan, device: int, stage: str, deps: Tuple[int, ...]
) -> int:
    """Append one local solve fragment; returns its last step's index."""
    steps.extend(
        _solve_steps(
            plan,
            device=device,
            base=len(steps),
            deps=deps,
            stages=(stage, stage, stage),
            marker_stage=stage,
        )
    )
    return len(steps) - 1


def lower_dist_plan(
    plan, group, dtype_size: int, *, fuse: bool = False
) -> Program:
    """Lower a :class:`DistPlan` to a multi-device ``dist`` program.

    With ``fuse=True`` the batched-fusion pass rewrites every
    self-contained local fragment into interleaved sweeps (the
    multi-device composition of ``--fuse``); the pipelined mode fuses
    unconditionally — interleaved local solves are part of its
    definition.
    """
    if plan.mode == "batch":
        return _lower_batch(plan, group, dtype_size, fuse=fuse)
    if plan.mode == "pipelined" and plan.num_devices > 1:
        return _lower_pipelined(plan, group, dtype_size)
    if plan.mode == "approx" and plan.num_devices > 1:
        return _lower_approx(plan, group, dtype_size, fuse=fuse)
    return _lower_rows(plan, group, dtype_size, fuse=fuse)


def _lower_rows(plan, group, dtype_size: int, *, fuse: bool = False) -> Program:
    p = plan.num_devices
    m = plan.num_systems
    label = group.describe()
    names = tuple(d.name for d in group)
    if p == 1:
        steps: List[Step] = []
        _local_fragment(steps, plan.local_plans[0], 0, "local_solve", ())
        return run_default_passes(
            Program(
                kind="dist",
                label=label,
                device_names=(group.device_name,),
                dtype_size=dtype_size,
                num_systems=m,
                system_size=plan.system_size,
                schedule=plan.schedule,
                topology=plan.topology,
                steps=tuple(steps),
            ),
            fuse=fuse,
        )

    steps = []
    boundary_sends: List[int] = []
    for i, chunk in enumerate(plan.chunk_sizes):
        last = _local_fragment(steps, plan.local_plans[i], i, "local_solve", ())
        # Boundary messages physically converge on device 0: every
        # cross-device transfer claims the destination's ingress lane
        # (see Step.resource_keys), so the hub serialisation falls out
        # of the lane model. This is what the truncated (approx) mode's
        # neighbour-only exchange avoids — its hub-free step change at
        # high device counts comes from here.
        steps.append(
            Step(
                op=Transfer(_BOUNDARY_VALUES, i, 0),
                device=i,
                engine="xfer",
                stage="send_boundary",
                shape=(m, chunk),
                deps=(last,),
            )
        )
        boundary_sends.append(len(steps) - 1)

    reduced_size = max(2, next_power_of_two(2 * p))
    steps.append(
        Step(
            op=ReducedSolve(reduced_size),
            device=0,
            stage="reduced_solve",
            shape=(m, reduced_size),
            deps=tuple(boundary_sends),
        )
    )
    reduced = len(steps) - 1
    for i, chunk in enumerate(plan.chunk_sizes):
        steps.append(
            Step(
                op=Transfer(_CORRECTION_VALUES, 0, i),
                device=i,
                engine="xfer",
                stage="recv_correction",
                shape=(m, chunk),
                deps=(reduced,),
            )
        )
        steps.append(
            Step(
                op=Reconstruct(),
                device=i,
                stage="reconstruct",
                shape=(m, chunk),
                deps=(len(steps) - 1,),
            )
        )
    return run_default_passes(
        Program(
            kind="dist",
            label=label,
            device_names=names,
            dtype_size=dtype_size,
            num_systems=m,
            system_size=plan.system_size,
            schedule=plan.schedule,
            topology=plan.topology,
            steps=tuple(steps),
        ),
        fuse=fuse,
    )


def _lower_approx(plan, group, dtype_size: int, *, fuse: bool = False) -> Program:
    """The truncated-SPIKE program: no reduced system, no hub device.

    Every device runs the same fused 3-RHS local solve as rows mode,
    then each chunk *interface* is one independent 2×2 solve placed on
    the interface's right-hand device, fed by a single
    neighbour-to-neighbour tip transfer from the left. One boundary
    value flows back left for the reconstruction. The critical path is
    local solve + one hop + a 2×2 solve + one hop — constant in the
    device count, which is exactly the step change over rows mode's
    all-to-zero reduced solve at high ``p``.
    """
    p = plan.num_devices
    m = plan.num_systems

    steps: List[Step] = []
    local_last: List[int] = []
    for i in range(p):
        local_last.append(
            _local_fragment(steps, plan.local_plans[i], i, "local_solve", ())
        )
    tip_sends: dict = {}
    for i in range(p - 1):
        steps.append(
            Step(
                op=Transfer(_TIP_VALUES, i, i + 1),
                device=i,
                engine="xfer",
                stage="send_tips",
                shape=(m, plan.chunk_sizes[i]),
                deps=(local_last[i],),
            )
        )
        tip_sends[i] = len(steps) - 1
    interface: dict = {}
    corrections: dict = {}
    for i in range(1, p):
        steps.append(
            Step(
                op=ReducedSolve(2),
                device=i,
                stage="interface_solve",
                shape=(m, 2),
                deps=(local_last[i], tip_sends[i - 1]),
            )
        )
        interface[i] = len(steps) - 1
        steps.append(
            Step(
                op=Transfer(_APPROX_CORRECTION_VALUES, i, i - 1),
                device=i,
                engine="xfer",
                stage="send_correction",
                shape=(m, plan.chunk_sizes[i]),
                deps=(interface[i],),
            )
        )
        corrections[i] = len(steps) - 1
    for i in range(p):
        deps = [local_last[i]]
        if i in interface:
            deps.append(interface[i])
        if i + 1 in corrections:
            deps.append(corrections[i + 1])
        steps.append(
            Step(
                op=Reconstruct(),
                device=i,
                stage="reconstruct",
                shape=(m, plan.chunk_sizes[i]),
                deps=tuple(deps),
            )
        )
    return run_default_passes(
        Program(
            kind="dist",
            label=group.describe(),
            device_names=tuple(d.name for d in group),
            dtype_size=dtype_size,
            num_systems=m,
            system_size=plan.system_size,
            schedule=plan.schedule,
            topology=plan.topology,
            steps=tuple(steps),
        ),
        fuse=fuse,
    )


def _lower_pipelined(plan, group, dtype_size: int) -> Program:
    """The pipelined rows program: fused local solves plus a hub-free
    neighbour sweep over the SPIKE reduced system.

    The reduced 2x2-block tridiagonal system is *exactly* the one rows
    mode gathers on device 0 — but block Thomas elimination is itself a
    left-to-right forward sweep followed by a right-to-left backward
    sweep, so instead of shipping every boundary to a hub we leave each
    device's two reduced rows in place and pipeline the sweeps across
    the ring:

    - **forward**: device ``k`` eliminates its rows and ships the
      compacted carry right — ``C_k`` has only its first column nonzero
      (the ``v`` spike), so the Gauss transform is 2 values, plus the
      2-value partial RHS (:data:`repro.dist.partition.PIPELINE_CARRY_VALUES`).
    - **backward**: device ``k+1`` ships its solved boundary pair's
      relevant 2 values left (``PIPELINE_BACK_VALUES``).
    - **tip hop**: reconstruction on device ``k`` needs ``t_{k-1}`` from
      the left neighbour — 1 value (``PIPELINE_TIP_VALUES``).

    7 values per interface over neighbour links, versus rows mode's 8
    through device 0's single ingress/egress pair. Each hop claims only
    the two endpoint lanes, so hop ``k -> k+1`` overlaps hop
    ``k-1 -> k``'s compute *and* every still-running local solve —
    the overlap the list scheduler (:mod:`repro.ir.engine`) prices.
    Local solves always lower fused: the interleaved sweeps are part of
    the mode's definition, and PR 7 pins them bit-identical to the
    staged chain, so the whole mode stays bit-identical to rows.
    """
    from ..dist.partition import (
        PIPELINE_BACK_VALUES,
        PIPELINE_CARRY_VALUES,
        PIPELINE_TIP_VALUES,
    )

    p = plan.num_devices
    m = plan.num_systems

    steps: List[Step] = []
    local_last: List[int] = []
    for i in range(p):
        local_last.append(
            _local_fragment(steps, plan.local_plans[i], i, "local_solve", ())
        )

    # Forward elimination sweep, left to right.
    fwd: dict = {}
    for i in range(p):
        deps = [local_last[i]]
        if i > 0:
            steps.append(
                Step(
                    op=Transfer(PIPELINE_CARRY_VALUES, i - 1, i),
                    device=i - 1,
                    engine="xfer",
                    stage="carry_forward",
                    shape=(m, plan.chunk_sizes[i - 1]),
                    deps=(fwd[i - 1],),
                )
            )
            deps.append(len(steps) - 1)
        steps.append(
            Step(
                op=ReducedSolve(2),
                device=i,
                stage="reduced_forward",
                shape=(m, 2),
                deps=tuple(deps),
            )
        )
        fwd[i] = len(steps) - 1

    # Backward substitution sweep, right to left. The rightmost device's
    # forward step already yields its boundary pair.
    back: dict = {p - 1: fwd[p - 1]}
    for i in range(p - 2, -1, -1):
        steps.append(
            Step(
                op=Transfer(PIPELINE_BACK_VALUES, i + 1, i),
                device=i + 1,
                engine="xfer",
                stage="carry_back",
                shape=(m, plan.chunk_sizes[i + 1]),
                deps=(back[i + 1],),
            )
        )
        steps.append(
            Step(
                op=ReducedSolve(2),
                device=i,
                stage="reduced_backward",
                shape=(m, 2),
                deps=(fwd[i], len(steps) - 1),
            )
        )
        back[i] = len(steps) - 1

    # Reconstruction on device k needs t_{k-1}: one value hops right.
    tip: dict = {}
    for i in range(1, p):
        steps.append(
            Step(
                op=Transfer(PIPELINE_TIP_VALUES, i - 1, i),
                device=i - 1,
                engine="xfer",
                stage="send_tip",
                shape=(m, plan.chunk_sizes[i - 1]),
                deps=(back[i - 1],),
            )
        )
        tip[i] = len(steps) - 1

    for i in range(p):
        deps = [local_last[i], back[i]]
        if i in tip:
            deps.append(tip[i])
        steps.append(
            Step(
                op=Reconstruct(),
                device=i,
                stage="reconstruct",
                shape=(m, plan.chunk_sizes[i]),
                deps=tuple(deps),
            )
        )

    return run_default_passes(
        Program(
            kind="dist",
            label=group.describe(),
            device_names=tuple(d.name for d in group),
            dtype_size=dtype_size,
            num_systems=m,
            system_size=plan.system_size,
            schedule=plan.schedule,
            topology=plan.topology,
            steps=tuple(steps),
        ),
        fuse=True,
    )


def _lower_batch(plan, group, dtype_size: int, *, fuse: bool = False) -> Program:
    shares = plan.chunk_sizes
    active = len(shares)
    n = plan.system_size
    names = tuple(group[i].name for i in range(active))
    host = 0

    steps: List[Step] = []
    for i, share in enumerate(shares):
        if i == host:
            _local_fragment(steps, plan.local_plans[i], i, "local_solve", ())
            continue
        steps.append(
            Step(
                op=Transfer(4.0 * n, host, i),
                device=i,
                engine="xfer",
                stage="recv_coeffs",
                shape=(share, n),
                deps=(),
            )
        )
        _local_fragment(
            steps, plan.local_plans[i], i, "local_solve", (len(steps) - 1,)
        )
    prefix = run_default_passes(
        Program(
            kind="dist",
            label=group.describe(),
            device_names=names,
            dtype_size=dtype_size,
            num_systems=plan.num_systems,
            system_size=n,
            schedule=plan.schedule,
            topology=plan.topology,
            steps=tuple(steps),
        ),
        fuse=fuse,
    )

    # The gather serialises on the host's ingress link in *completion*
    # order. Pricing the scatter+compute prefix with the same engine
    # that will interpret the final program yields exactly the
    # completion times the schedule will see.
    run = Engine.for_group(group).price(prefix)
    last_idx = {}
    for idx, step in enumerate(prefix.steps):
        last_idx[step.device] = idx
    compute_end = {i: run.trace[last_idx[i]].end_ms for i in range(active)}

    final = list(prefix.steps)
    for i in sorted(range(active), key=lambda j: compute_end[j]):
        if i == host:
            continue
        final.append(
            Step(
                op=Transfer(float(n), i, host),
                device=i,
                engine="xfer",
                stage="send_solution",
                shape=(shares[i], n),
                deps=(last_idx[i],),
            )
        )
    return run_default_passes(replace(prefix, steps=tuple(final)))
