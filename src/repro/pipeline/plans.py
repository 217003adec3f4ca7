"""Plan compositions: one SEED composer plus three literal baselines.

The paper's driver program is one fixed sequence (Algorithm 2: index,
partition, expand with SEEDs, collect, merge).  Every SEED plan is that
sequence with one partitioning *prefix* and one merge *tail*, composed
by `build_plan`:

==============  ==========================================================
prefix          ``range``: BuildIndex → PartitionPlan → BroadcastModel →
                LocalExpand; ``spatial``: the same after a SpatialReorder
                stage (and a permutation-undoing RelabelFilter);
                ``cells`` (``partitioning="cells"``): CellPartition →
                LocalIndexExpand — cell partitions with local indexes and
                an eps-halo, no BuildIndex, no BroadcastModel
tail            ``partials``: CollectPartials → MergePartials;
                ``edges`` (``merge_mode="edges"``): CollectEdges →
                MergeEdges → ApplyGidMap (DESIGN.md §11)
==============  ==========================================================

LoadPoints opens and RelabelFilter closes every SEED plan; the six
products are named ``spark``/``spatial``/``cell`` plus ``_edges`` for
the edge tail.  The non-SEED baselines stay literal stage lists:

==============  ==========================================================
``sequential``  the degenerate single-partition plan: LoadPoints →
                BuildIndex → SequentialExpand
``naive``       LoadPoints → BuildIndex → ShuffleExpand → RelabelFilter
``mapreduce``   LoadPoints → BuildIndex(+cache) → PartitionPlan →
                LocalExpand(MR job 1) → CollectPartials(MR job 2) →
                RelabelFilter
==============  ==========================================================

``Plan.outputs`` names the state keys a frontend reads off the final
state; the runner works backwards from them to decide which stages can be
skipped outright when a resume restores their downstream consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import RunConfig
from .stages import (
    ApplyGidMap,
    BroadcastModel,
    BuildIndex,
    CollectEdges,
    CollectPartials,
    LoadPoints,
    LocalExpand,
    MergeEdges,
    MergePartials,
    PartitionPlan,
    RelabelFilter,
    SequentialExpand,
    SpatialReorder,
    Stage,
)
from .stages_cells import CellPartition, LocalIndexExpand
from .stages_mapreduce import MRBuildIndex, MRCollect, MRLocalExpand, MRRelabel
from .stages_naive import NaiveRelabel, ShuffleExpand


@dataclass(frozen=True)
class Plan:
    """An ordered stage composition plus the keys its caller consumes."""

    name: str
    stages: tuple[Stage, ...]
    outputs: tuple[str, ...] = ("labels",)
    algo_label: str = field(default="")

    def __post_init__(self) -> None:
        if not self.stages or not isinstance(self.stages[0], LoadPoints):
            raise ValueError("every plan must start with LoadPoints")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in plan: {names}")

    def stage_names(self) -> tuple[str, ...]:
        """The stage names, in execution order."""
        return tuple(s.name for s in self.stages)


#: The non-SEED baselines as literal compositions:
#: name -> (algo_label, stage classes, outputs).
_BASELINES = {
    "sequential": (
        "sequential",
        (LoadPoints, BuildIndex, SequentialExpand),
        ("labels",),
    ),
    "naive": (
        "NaiveSparkDBSCAN",
        (LoadPoints, BuildIndex, ShuffleExpand, NaiveRelabel),
        ("labels", "propagated"),
    ),
    "mapreduce": (
        "MapReduceDBSCAN",
        (LoadPoints, MRBuildIndex, PartitionPlan, MRLocalExpand, MRCollect,
         MRRelabel),
        ("labels", "mr_round1", "mr_round2"),
    ),
}


def _seed_plan(name: str, config: RunConfig) -> Plan:
    """A SEED plan: LoadPoints, the partitioning prefix, the merge tail,
    RelabelFilter.  Label and outputs follow the same two choices.
    """
    spatial = config.algorithm == "spatial"
    cells = config.partitioning == "cells"
    edges = config.merge_mode == "edges"
    if cells:
        # No BuildIndex, no BroadcastModel: each executor indexes only
        # its (owned + halo) payload.
        prefix: tuple[Stage, ...] = (CellPartition(), LocalIndexExpand())
    else:
        prefix = (
            *((SpatialReorder(),) if spatial else ()),
            # The tree must be built over the *reordered* points, so the
            # build depends on the permutation having been applied.
            BuildIndex(requires=("points", "perm") if spatial else None),
            PartitionPlan(),
            BroadcastModel(),
            LocalExpand(),
        )
    if edges:
        tail: tuple[Stage, ...] = (CollectEdges(), MergeEdges(), ApplyGidMap())
    else:
        tail = (CollectPartials(), MergePartials())
    tags = ",".join(t for t, on in (("cells", cells), ("edges", edges)) if on)
    return Plan(
        name=name,
        algo_label=("SpatialSparkDBSCAN" if spatial else "SparkDBSCAN")
        + (f"[{tags}]" if tags else ""),
        stages=(
            LoadPoints(), *prefix, *tail,
            RelabelFilter(spatial=spatial, keep_partials=config.keep_partials),
        ),
        outputs=("labels", "outcome")
        + (() if edges else ("partials",))
        + (("perm",) if spatial else ()),
    )


# Static mirror of the plan compositions above, as stage *class* names.
# Pure literals on purpose: the whole-program linter (repro.lint.plans)
# reads this straight off the AST — without importing or executing
# anything — to verify each plan's requires/provides chain and to
# derive the SHF001 entry points.  tests/pipeline/test_plans.py asserts
# it stays in sync with `build_plan`.
STAGE_MANIFEST = {
    "spark": (
        "LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectPartials", "MergePartials", "RelabelFilter",
    ),
    "spatial": (
        "LoadPoints", "SpatialReorder", "BuildIndex", "PartitionPlan",
        "BroadcastModel", "LocalExpand", "CollectPartials", "MergePartials",
        "RelabelFilter",
    ),
    "cell": (
        "LoadPoints", "CellPartition", "LocalIndexExpand", "CollectPartials",
        "MergePartials", "RelabelFilter",
    ),
    "spark_edges": (
        "LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectEdges", "MergeEdges", "ApplyGidMap",
        "RelabelFilter",
    ),
    "spatial_edges": (
        "LoadPoints", "SpatialReorder", "BuildIndex", "PartitionPlan",
        "BroadcastModel", "LocalExpand", "CollectEdges", "MergeEdges",
        "ApplyGidMap", "RelabelFilter",
    ),
    "cell_edges": (
        "LoadPoints", "CellPartition", "LocalIndexExpand", "CollectEdges",
        "MergeEdges", "ApplyGidMap", "RelabelFilter",
    ),
    "sequential": ("LoadPoints", "BuildIndex", "SequentialExpand"),
    "naive": ("LoadPoints", "BuildIndex", "ShuffleExpand", "NaiveRelabel"),
    "mapreduce": (
        "LoadPoints", "MRBuildIndex", "PartitionPlan", "MRLocalExpand",
        "MRCollect", "MRRelabel",
    ),
}

# Plans under the paper's zero-shuffle contract (Algorithms 3-4): their
# stage classes are SHF001 entry points, so a stage added to these
# compositions is automatically under the shuffle-free proof.
SHUFFLE_FREE_PLANS = (
    "spark", "spatial", "cell", "spark_edges", "spatial_edges", "cell_edges",
)

# Static per-stage size-class contract (DESIGN.md §8.7).  Pure literals
# again: ``repro.lint.sizeclass`` reads the ``input``/``output`` classes
# straight off the AST to seed the size-class abstract interpretation
# (the SCL rules), and ``repro.lint.plans`` verifies every entry names a
# manifest stage class, every manifest stage is covered, and the classes
# are drawn from the O(1) ⊑ O(cells) ⊑ O(partials) ⊑ O(edges) ⊑
# O(points) lattice.  "input"/"output" describe the *driver-resident*
# data a stage consumes/produces — a stage whose work lives in a lazy
# RDD plan is O(1) on the driver even though executors touch O(points).
SIZE_MANIFEST = {
    "LoadPoints": {"input": "O(points)", "output": "O(points)"},
    "SpatialReorder": {"input": "O(points)", "output": "O(points)"},
    "BuildIndex": {"input": "O(points)", "output": "O(points)"},
    "PartitionPlan": {"input": "O(1)", "output": "O(1)"},
    "BroadcastModel": {"input": "O(points)", "output": "O(1)"},
    "CellPartition": {"input": "O(points)", "output": "O(points)"},
    "LocalExpand": {"input": "O(1)", "output": "O(1)"},
    "LocalIndexExpand": {"input": "O(1)", "output": "O(1)"},
    "CollectPartials": {"input": "O(points)", "output": "O(points)"},
    "CollectEdges": {"input": "O(edges)", "output": "O(edges)"},
    "MergeEdges": {"input": "O(edges)", "output": "O(partials)"},
    "MergePartials": {"input": "O(points)", "output": "O(points)"},
    "ApplyGidMap": {"input": "O(partials)", "output": "O(points)"},
    "RelabelFilter": {"input": "O(points)", "output": "O(points)"},
    "SequentialExpand": {"input": "O(points)", "output": "O(points)"},
    "ShuffleExpand": {"input": "O(points)", "output": "O(points)"},
    "NaiveRelabel": {"input": "O(points)", "output": "O(points)"},
    "MRBuildIndex": {"input": "O(points)", "output": "O(points)"},
    "MRLocalExpand": {"input": "O(1)", "output": "O(1)"},
    "MRCollect": {"input": "O(points)", "output": "O(points)"},
    "MRRelabel": {"input": "O(points)", "output": "O(points)"},
}


def plan_name(config: RunConfig) -> str:
    """The plan a config resolves to.

    ``partitioning="cells"`` swaps the spark composition for the cell
    plan; ``merge_mode="edges"`` swaps the merge tail; every other
    config maps straight to its algorithm name.
    """
    base = "cell" if config.partitioning == "cells" else config.algorithm
    if config.merge_mode == "edges":
        return f"{base}_edges"
    return base


def build_plan(config: RunConfig) -> Plan:
    """The plan composition for ``config.algorithm``/``partitioning``/
    ``merge_mode``."""
    name = plan_name(config)
    if name in _BASELINES:
        algo_label, stages, outputs = _BASELINES[name]
        return Plan(name=name, algo_label=algo_label,
                    stages=tuple(stage() for stage in stages), outputs=outputs)
    return _seed_plan(name, config)
