"""Program transformation and validation passes.

Every lowering runs :func:`run_default_passes` before a program reaches
the engine:

1. :func:`eliminate_dead_steps` — drop no-op steps (``SplitCoop``/
   ``SplitBlock``/``Unsplit`` with zero split steps, zero-byte
   ``Transfer``s) and forward their dependency edges, so e.g. a plan
   with ``stage1_steps=0`` lowers to a program with no ``SplitCoop`` at
   all and the matching zero-step ``Unsplit`` disappears with it.
2. :func:`canonicalize` — normalise the representation-level degrees of
   freedom (explicitly spelled default resources, duplicate dependency
   edges) so structurally equal programs compare and sign equal.
3. :func:`infer_dependencies` (dist programs) — make implicit
   program-order sequencing on a (device, engine) lane explicit: a
   dep-less step that follows another step on its lane gets a
   dependency edge on it. The overlap-aware list scheduler is then free
   to reorder *across* lanes knowing every ordering that matters is an
   edge — the pass is what makes out-of-order placement
   correctness-preserving for hand-built programs too.
4. :func:`fuse_batched` (opt-in) — rewrite staged solve fragments into
   fused interleaved-batch sweeps (``Interleave`` + ``BatchedSolve``),
   merging runs of adjacent same-signature fragments into one. Works on
   solve *and* dist programs — the pipelined distributed mode places a
   fused fragment on every device.
5. :func:`validate` — reject malformed programs (backward/forward
   dependency indices, out-of-range devices, opcodes a single-device
   solve cannot express) with :class:`~repro.util.errors.PlanError`
   before the engine trips over them mid-interpretation.

Change reporting
----------------
Every transformation pass returns the *input object itself* when it has
nothing to do — ``pass_(p) is p`` means "no change". The pipeline uses
that to skip redundant re-walks (canonicalise only re-runs after a pass
that actually rewrote the program), which keeps the hot planning path
from re-walking canonical programs; a pass-idempotence test pins the
behaviour.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..util.errors import PlanError
from .instructions import (
    BatchedSolve,
    Interleave,
    OnChipSolve,
    Pad,
    Program,
    SplitBlock,
    SplitCoop,
    Step,
    Transfer,
    Unpad,
    Unsplit,
)

__all__ = [
    "eliminate_dead_steps",
    "canonicalize",
    "infer_dependencies",
    "fuse_batched",
    "validate",
    "run_default_passes",
]

_ENGINES = ("compute", "xfer")


def _is_dead(op) -> bool:
    if isinstance(op, (SplitCoop, SplitBlock, Unsplit)):
        return op.steps == 0
    if isinstance(op, Transfer):
        return op.values_per_system == 0
    return False


def eliminate_dead_steps(program: Program) -> Program:
    """Drop no-op steps, forwarding their dependency edges.

    A step that depended on a dropped step inherits the dropped step's
    own (already renumbered) dependencies, so scheduling constraints are
    preserved exactly; only the no-op disappears. Returns ``program``
    itself when nothing is dead (no change).
    """
    if not any(_is_dead(step.op) for step in program.steps):
        return program
    kept: List[Step] = []
    new_index: Dict[int, int] = {}
    forwarded: Dict[int, Tuple[int, ...]] = {}
    for i, step in enumerate(program.steps):
        resolved: List[int] = []
        for dep in step.deps:
            if dep in forwarded:
                resolved.extend(forwarded[dep])
            else:
                resolved.append(new_index[dep])
        seen = set()
        deps = tuple(d for d in resolved if not (d in seen or seen.add(d)))
        if _is_dead(step.op):
            forwarded[i] = deps
            continue
        new_index[i] = len(kept)
        kept.append(replace(step, deps=deps))
    return replace(program, steps=tuple(kept))


def canonicalize(program: Program) -> Program:
    """Normalise representation-only degrees of freedom.

    An explicitly spelled default resource becomes the empty string and
    dependency lists are deduplicated and sorted, so two lowerings of
    the same schedule produce structurally equal (and equally signed)
    programs. Returns ``program`` itself when already canonical.
    """
    steps: List[Step] = []
    changed = False
    for step in program.steps:
        resource = step.resource
        if resource == f"dev{step.device}:{step.engine}":
            resource = ""
        deps = tuple(sorted(set(step.deps)))
        if resource != step.resource or deps != step.deps:
            step = replace(step, resource=resource, deps=deps)
            changed = True
        steps.append(step)
    if not changed:
        return program
    return replace(program, steps=tuple(steps))


def infer_dependencies(program: Program) -> Program:
    """Chain dep-less steps to their (device, engine) lane predecessor.

    The price engine's list scheduler may place ready steps out of
    program order; dependency edges are its only correctness
    constraint. Every lowering in this package emits explicit edges,
    so this pass is a no-op on them — but a hand-assembled dist program
    (tests, external callers) may have relied on program order within
    one device engine for correctness.
    This pass makes that implicit order explicit: a non-marker step
    with *no* dependencies that follows another non-marker step on the
    same ``(device, engine)`` lane gains an edge on it. Steps that
    already carry edges are left alone — they declared their real
    constraints, and cross-lane reordering around them is exactly what
    the overlap scheduler is for. Returns ``program`` itself when
    nothing was inferred.
    """
    if program.kind != "dist":
        return program
    last_on_lane: Dict[Tuple[int, str], int] = {}
    steps: List[Step] = []
    changed = False
    for i, step in enumerate(program.steps):
        if not step.is_marker:
            lane = (step.device, step.engine)
            prev = last_on_lane.get(lane)
            if prev is not None and not step.deps:
                step = replace(step, deps=(prev,))
                changed = True
            last_on_lane[lane] = i
        steps.append(step)
    if not changed:
        return program
    return replace(program, steps=tuple(steps))


# -- batched fusion ----------------------------------------------------------


class _Fragment:
    """One staged solve fragment: the step span and its plan parameters."""

    __slots__ = (
        "start", "end", "device", "num_systems", "padded_size",
        "stage1_steps", "stage2_steps", "thomas_switch", "variant",
        "pad_stage", "unpad_stage", "signature",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


def _match_fragment(steps: Tuple[Step, ...], start: int) -> Optional[_Fragment]:
    """Match the staged chain ``Pad [SplitCoop] [SplitBlock] OnChipSolve
    Unsplit* Unpad`` as a linear dependency chain starting at ``start``.

    Only self-contained fragments fuse: the ``Pad`` must have no
    external dependencies and every later step must depend exactly on
    its predecessor (the shape every solve lowering emits).
    """
    i = start
    if not isinstance(steps[i].op, Pad) or steps[i].deps != ():
        return None
    pad = steps[i]
    device, engine = pad.device, pad.engine

    def chained(j: int) -> bool:
        s = steps[j]
        return (
            s.deps == (j - 1,) and s.device == device and s.engine == engine
        )

    k1 = k2 = 0
    i += 1
    if i < len(steps) and isinstance(steps[i].op, SplitCoop) and chained(i):
        k1 = steps[i].op.steps
        i += 1
    if i < len(steps) and isinstance(steps[i].op, SplitBlock) and chained(i):
        k2 = steps[i].op.steps
        i += 1
    if i >= len(steps) or not isinstance(steps[i].op, OnChipSolve) or not chained(i):
        return None
    solve = steps[i].op
    i += 1
    while i < len(steps) and isinstance(steps[i].op, Unsplit) and chained(i):
        i += 1
    if i >= len(steps) or not isinstance(steps[i].op, Unpad) or not chained(i):
        return None
    end = i
    return _Fragment(
        start=start,
        end=end,
        device=device,
        num_systems=pad.shape[0],
        padded_size=pad.op.padded_size,
        stage1_steps=k1,
        stage2_steps=k2,
        thomas_switch=solve.thomas_switch,
        variant=solve.variant,
        pad_stage=pad.stage,
        unpad_stage=steps[end].stage,
        signature=tuple(steps[j].signature for j in range(start, end + 1)),
    )


def _fused_steps(frag: _Fragment, num_systems: int, base: int) -> List[Step]:
    """The five-step fused replacement for a fragment run."""
    shape = (num_systems, frag.padded_size)
    device = frag.device
    out: List[Step] = []

    def add(op, stage: str) -> None:
        deps = (base + len(out) - 1,) if out else ()
        out.append(
            Step(op=op, device=device, stage=stage, shape=shape, deps=deps)
        )

    add(Pad(frag.padded_size), frag.pad_stage)
    add(Interleave("in"), "interleave")
    add(
        BatchedSolve(
            stage1_steps=frag.stage1_steps,
            stage2_steps=frag.stage2_steps,
            thomas_switch=frag.thomas_switch,
            variant=frag.variant,
        ),
        "fused_sweep",
    )
    add(Interleave("out"), "deinterleave")
    add(Unpad(), frag.unpad_stage)
    return out


def fuse_batched(program: Program) -> Program:
    """Rewrite staged solve fragments into fused interleaved sweeps.

    Each ``Pad → SplitCoop/SplitBlock → OnChipSolve → Unsplit* → Unpad``
    chain becomes ``Pad → Interleave(in) → BatchedSolve →
    Interleave(out) → Unpad``; *adjacent* fragments with identical
    (count-independent) step signatures — the service's plan-signature
    groups, or N concatenated single-system subprograms — collapse into
    **one** fused fragment over the summed system count, so the whole
    group runs as single vectorised sweeps.

    Solutions are bit-identical to the unfused chain (the batched
    kernels mirror the row-major numerics per element). The pass is
    idempotent — fused programs contain no ``OnChipSolve``, so a second
    application finds nothing — and returns ``program`` itself when no
    fragment matches (no change).

    Dist programs fuse too: each per-device local fragment whose ``Pad``
    has no external dependencies rewrites independently (the pipelined
    rows mode leans on this — its local chunk solves all run as
    interleaved sweeps). Fragments on different devices never merge —
    the device is part of the fragment signature.
    """
    steps = program.steps

    # Collect non-overlapping fragments left to right.
    fragments: List[_Fragment] = []
    i = 0
    while i < len(steps):
        frag = _match_fragment(steps, i)
        if frag is None:
            i += 1
            continue
        fragments.append(frag)
        i = frag.end + 1
    if not fragments:
        return program

    # Merge runs of adjacent fragments with identical signatures.
    runs: List[List[_Fragment]] = []
    for frag in fragments:
        if (
            runs
            and runs[-1][-1].end + 1 == frag.start
            and runs[-1][-1].signature == frag.signature
        ):
            runs[-1].append(frag)
        else:
            runs.append([frag])

    new_steps: List[Step] = []
    index_map: Dict[int, int] = {}
    run_iter = iter(runs)
    run = next(run_iter, None)
    i = 0
    while i < len(steps):
        if run is not None and i == run[0].start:
            total = sum(f.num_systems for f in run)
            fused = _fused_steps(run[0], total, base=len(new_steps))
            new_steps.extend(fused)
            last = len(new_steps) - 1
            for f in run:
                for j in range(f.start, f.end + 1):
                    index_map[j] = last
            i = run[-1].end + 1
            run = next(run_iter, None)
            continue
        step = steps[i]
        deps = tuple(sorted({index_map[d] for d in step.deps}))
        index_map[i] = len(new_steps)
        new_steps.append(
            step if deps == step.deps else replace(step, deps=deps)
        )
        i += 1
    return replace(program, steps=tuple(new_steps))


def validate(program: Program) -> Program:
    """Reject malformed programs; returns the program for chaining."""
    if program.kind not in ("solve", "dist"):
        raise PlanError(f"unknown program kind {program.kind!r}")
    if not program.device_names:
        raise PlanError("program places work on no devices")
    p = program.num_devices
    if program.kind == "solve" and p != 1:
        raise PlanError("a solve program must target exactly one device")
    for i, step in enumerate(program.steps):
        ident = f"step {i} ({type(step.op).__name__})"
        if not 0 <= step.device < p:
            raise PlanError(f"{ident} targets device {step.device} of {p}")
        if step.engine not in _ENGINES:
            raise PlanError(f"{ident} uses unknown engine {step.engine!r}")
        for dep in step.deps:
            if not 0 <= dep < i:
                raise PlanError(f"{ident} depends on step {dep}, not before it")
        if isinstance(step.op, Transfer):
            if program.kind == "solve":
                raise PlanError(f"{ident}: solve programs cannot transfer")
            for end in (step.op.src, step.op.dst):
                if not 0 <= end < p:
                    raise PlanError(
                        f"{ident} transfers via device {end} of {p}"
                    )
    return program


def run_default_passes(program: Program, *, fuse: bool = False) -> Program:
    """The standard pipeline every lowering runs.

    Eliminate, canonicalise, infer lane dependencies (dist programs),
    optionally fuse, validate — re-walking the canonicaliser only when
    a preceding pass reported a change (returned a new object), never
    after a no-op pass.
    """
    program = canonicalize(eliminate_dead_steps(program))
    program = infer_dependencies(program)
    if fuse:
        fused = fuse_batched(program)
        if fused is not program:
            # Only a pass that actually rewrote steps warrants the
            # canonicalise re-walk.
            program = canonicalize(fused)
    return validate(program)
