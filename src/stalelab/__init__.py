"""stalelab: a deterministic lab for staleness-aware outer optimization.

Workers run local AdamW phases and ship parameter deltas through seeded
integer-delay queues; a family of outer optimizers (gated Adam variants
and Nesterov baselines) applies them to the global parameters. The gate
module holds the cosine-cutoff/exponential-decay weighting, the theory
module checks its guarantees numerically, and the harness runs seeded
sweeps to byte-identical result files.
"""

from .config import ConfigError, RunConfig, config_hash, expand_sweep
from .gate import StalenessGate, cosine_gate, gate_curve, staleness_weight
from .objective import (
    MlpRegressionObjective,
    Objective,
    QuadraticObjective,
    RosenbrockObjective,
    batch_seeds,
    finite_diff_check,
    make_objective,
    sample_batch,
)
from .optim import (
    AdamMoments,
    Fragments,
    InnerConfig,
    OuterConfig,
    OuterState,
    eager_step,
    inner_adamw_step,
    outer_step,
)
from .simulator import (
    DelaySchedule,
    QueueEntry,
    RunResult,
    Simulation,
    delay_seeds,
    dequantize_payload,
    quantize_payload,
    run_experiment,
    run_inner_phase,
    sample_delay,
    select_fragments,
)
from .theory import TheoryInputs, audit_run, bound_terms, max_tau_sigma

__version__ = "0.1.0"
