"""The typed instruction IR: one representation for every solve.

Plans lower to :class:`Program`\\ s of typed :class:`Step`\\ s; one
:class:`Engine` interprets a program either with data (**execute**) or
without (**price**), so the single-device solver, the distributed
solver, and the batched service all share one sequencing/pricing path.
"""

from .engine import Engine, EngineRun, StepTrace
from .instructions import (
    Barrier,
    BatchedSolve,
    Interleave,
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
    signature_text,
)
from .lower import concat_solve_programs, lower_dist_plan, lower_solve_plan
from .passes import (
    canonicalize,
    eliminate_dead_steps,
    fuse_batched,
    run_default_passes,
    validate,
)

__all__ = [
    "Program",
    "Step",
    "Pad",
    "Unpad",
    "SplitCoop",
    "SplitBlock",
    "OnChipSolve",
    "Unsplit",
    "Interleave",
    "BatchedSolve",
    "ReducedSolve",
    "Reconstruct",
    "Transfer",
    "Barrier",
    "signature_text",
    "Engine",
    "EngineRun",
    "StepTrace",
    "lower_solve_plan",
    "lower_dist_plan",
    "concat_solve_programs",
    "eliminate_dead_steps",
    "canonicalize",
    "fuse_batched",
    "validate",
    "run_default_passes",
]
