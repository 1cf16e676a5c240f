"""Neural-symbolic Sudoku: exact logic engine, shallow network with
constraint-aware losses, and an ablation experiment harness."""

from .grids import (
    PuzzleInstance,
    SCOPE_ALL,
    SCOPE_EMPTY,
    cell_accuracy,
    format_grid,
    is_consistent_partial,
    is_valid_complete,
    masked_cell_count,
    parse_grid,
)
from .engine import (
    SolveOutcome,
    count_solutions,
    emit_asp_program,
    generate_solved,
    mask_puzzle,
    solve,
)
from .network import (
    AdamState,
    ModelParams,
    adam_step,
    backward,
    decode_prediction,
    encode_input,
    forward,
    init_adam,
    init_params,
    load_params,
    save_params,
)
from .losses import (
    ABLATIONS,
    LossBreakdown,
    LossConfig,
    ablation_config,
    combined_loss,
    combined_loss_grad,
    constraints_loss,
    expert_loss,
    standard_loss,
)
from .training import (
    ExperimentResult,
    FoldResult,
    TrainConfig,
    build_dataset,
    kfold_evaluate,
    load_dataset,
    save_dataset,
    solve_with_model,
    train,
)

__version__ = "0.1.0"
