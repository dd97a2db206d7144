"""Swarm construction by prediction-reward neuroevolution on a torus grid.

Robots on a wraparound grid push blocks; paired action/prediction networks
are evolved with the only reward being the accuracy of each robot's own
sensor predictions. The package covers the world geometry and snapshot
format, the batched deterministic simulation engine, the genetic algorithm,
post-evaluation metrics including block-structure classification, and a
batch experiment CLI.
"""

from .world import Heading, RobotPose, SimConfig
from .networks import (
    Genome,
    Scenario,
    decode,
    load_genome,
    random_genome,
    save_genome,
    scenario_prediction,
)
from .simulation import RunTrace, simulate_batch, simulate_traced
from .evolution import (
    EvaluatedGenome,
    EvolutionConfig,
    FitnessHistory,
    evaluate,
    evolve,
    mix64,
    mutate,
    select_proportionate,
)
from .metrics import (
    MetricsRow,
    StructureLabel,
    StructureReport,
    classify_blocks,
    movement,
    score_run,
    similarity,
    structure_report,
)
from .experiment import (
    ExperimentPlan,
    PlanRow,
    matrix_plan,
    parse_config,
    replay,
    run_experiment,
)

__version__ = "0.1.0"
