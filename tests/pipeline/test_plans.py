"""Plan composition: the static literal the linter reads must mirror what
`build_plan` composes, and every plan keeps its pinned shape (names,
labels, outputs, stage names), which checkpoint keys and resume use."""

import pytest

from repro.pipeline.config import RunConfig
from repro.pipeline.plans import (
    SHUFFLE_FREE_PLANS,
    STAGE_MANIFEST,
    build_plan,
    plan_name,
)


def config_for(name: str, **kwargs) -> RunConfig:
    """A RunConfig that resolves to the named plan.

    The ``cell`` plan is not an algorithm: it is the spark plan re-based
    via ``partitioning="cells"``; the ``*_edges`` plans are the same
    compositions with the edge-based merge tail (``merge_mode="edges"``).
    """
    if name.endswith("_edges"):
        name = name[: -len("_edges")]
        kwargs["merge_mode"] = "edges"
    if name == "cell":
        return RunConfig(eps=25.0, minpts=5, algorithm="spark",
                         partitioning="cells", **kwargs)
    return RunConfig(eps=25.0, minpts=5, algorithm=name, **kwargs)


# Every plan's shape, name -> (algo_label, outputs, stage names).  Stage
# names key the checkpoints, so a drift here breaks resume.
PINNED = {
    "spark": (
        "SparkDBSCAN", ("labels", "outcome", "partials"),
        ("LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
         "LocalExpand", "CollectPartials", "MergePartials", "RelabelFilter"),
    ),
    "spatial": (
        "SpatialSparkDBSCAN", ("labels", "outcome", "partials", "perm"),
        ("LoadPoints", "SpatialReorder", "BuildIndex", "PartitionPlan",
         "BroadcastModel", "LocalExpand", "CollectPartials", "MergePartials",
         "RelabelFilter"),
    ),
    "cell": (
        "SparkDBSCAN[cells]", ("labels", "outcome", "partials"),
        ("LoadPoints", "CellPartition", "LocalIndexExpand", "CollectPartials",
         "MergePartials", "RelabelFilter"),
    ),
    "spark_edges": (
        "SparkDBSCAN[edges]", ("labels", "outcome"),
        ("LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
         "LocalExpand", "CollectEdges", "MergeEdges", "ApplyGidMap",
         "RelabelFilter"),
    ),
    "spatial_edges": (
        "SpatialSparkDBSCAN[edges]", ("labels", "outcome", "perm"),
        ("LoadPoints", "SpatialReorder", "BuildIndex", "PartitionPlan",
         "BroadcastModel", "LocalExpand", "CollectEdges", "MergeEdges",
         "ApplyGidMap", "RelabelFilter"),
    ),
    "cell_edges": (
        "SparkDBSCAN[cells,edges]", ("labels", "outcome"),
        ("LoadPoints", "CellPartition", "LocalIndexExpand", "CollectEdges",
         "MergeEdges", "ApplyGidMap", "RelabelFilter"),
    ),
    "sequential": (
        "sequential", ("labels",),
        ("LoadPoints", "BuildIndex", "SequentialExpand"),
    ),
    "naive": (
        "NaiveSparkDBSCAN", ("labels", "propagated"),
        ("LoadPoints", "BuildIndex", "ShuffleExpand", "RelabelFilter"),
    ),
    "mapreduce": (
        "MapReduceDBSCAN", ("labels", "mr_round1", "mr_round2"),
        ("LoadPoints", "BuildIndex", "PartitionPlan", "LocalExpand",
         "CollectPartials", "RelabelFilter"),
    ),
}

# (plan, keep_partials) -> stage name -> (requires, load_requires) for
# the stages whose wiring the spatial permutation changes.
PINNED_WIRING = {
    ("spark", False): {
        "BuildIndex": (("points",), ()),
        "RelabelFilter": (("outcome",), ()),
    },
    ("spatial", False): {
        "BuildIndex": (("points", "perm"), ()),
        "RelabelFilter": (("outcome", "perm"), ("perm",)),
    },
    ("spatial", True): {
        "BuildIndex": (("points", "perm"), ()),
        "RelabelFilter": (("outcome", "perm", "partials"),
                          ("perm", "partials")),
    },
    ("spatial_edges", False): {
        "BuildIndex": (("points", "perm"), ()),
        "RelabelFilter": (("outcome", "perm"), ("perm",)),
    },
}


def test_manifest_covers_every_plan():
    assert set(STAGE_MANIFEST) == set(PINNED)
    assert set(SHUFFLE_FREE_PLANS) <= set(STAGE_MANIFEST)


def test_manifest_matches_builders():
    for name in STAGE_MANIFEST:
        plan = build_plan(config_for(name))
        built = tuple(type(stage).__name__ for stage in plan.stages)
        assert built == STAGE_MANIFEST[name], (
            f"plan {name!r}: STAGE_MANIFEST out of sync with build_plan"
        )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plan_shape_is_pinned(name):
    algo_label, outputs, stage_names = PINNED[name]
    plan = build_plan(config_for(name))
    assert plan.name == name
    assert plan.algo_label == algo_label
    assert plan.outputs == outputs
    assert plan.stage_names() == stage_names


@pytest.mark.parametrize("name,keep_partials", sorted(PINNED_WIRING))
def test_spatial_wiring_is_pinned(name, keep_partials):
    plan = build_plan(config_for(name, keep_partials=keep_partials))
    stages = {s.name: s for s in plan.stages}
    for stage_name, (requires, load_requires) in (
        PINNED_WIRING[name, keep_partials].items()
    ):
        assert stages[stage_name].requires == requires
        assert stages[stage_name].load_requires == load_requires


def test_shuffle_free_plans_are_the_paper_pipelines():
    assert SHUFFLE_FREE_PLANS == (
        "spark", "spatial", "cell",
        "spark_edges", "spatial_edges", "cell_edges",
    )


def test_plan_name_resolution():
    assert plan_name(config_for("spark")) == "spark"
    assert plan_name(config_for("cell")) == "cell"
    assert build_plan(config_for("cell")).name == "cell"
    assert plan_name(config_for("spark_edges")) == "spark_edges"
    assert plan_name(config_for("spatial_edges")) == "spatial_edges"
    assert plan_name(config_for("cell_edges")) == "cell_edges"
    assert build_plan(config_for("cell_edges")).name == "cell_edges"
