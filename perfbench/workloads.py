"""The benchmark's workloads: generated graphs, scorer lists and grids.

Every workload is a ``run_benchmark`` configuration over one generated graph.
The workload seed shifts the graph generator's seed and sets ``base_seed``, so
seed 0 reproduces the defaults below.  Nothing here imports numpy or bihop,
so the caller can pin the BLAS thread count before either loads.

Why these three: the pipeline has no single cost centre.  ``null_all`` is
the full scorer list on a small sparse graph, where training dominates.
``wide_baselines`` trains no model at all, so per-pair heuristics, graph
building and splitting dominate.  ``large_blocks`` sits above the 4096-node
dense threshold, so training runs in row blocks and the model scorers and
Katz take their lazy paths.  A change that helps one side of the threshold
and hurts the other shows on one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph_seed: int
    source: dict
    scorers: tuple
    grids: dict = field(default_factory=dict)

    def spec_source(self, seed: int) -> dict:
        """Generator mapping for ``bihop.DatasetSpec.source`` at this seed."""
        return dict(self.source, seed=self.graph_seed + seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="null_all",
            why="all 10 scorers on criterion 4's ER null graph (n=200); two models "
            "trained per run, every path on the dense side of the 4096-node threshold",
            graph_seed=7,
            source={"model": "er", "n_left": 100, "n_right": 100, "p": 0.05},
            scorers=(
                "two_hop", "recon_two_hop", "lgae", "gae", "pa", "katz", "cn", "jc", "aa", "ra",
            ),
        ),
        Workload(
            name="wide_baselines",
            why="ER graph with ml100k's side ratio and density at 0.64x its sides "
            "(n=1670, ~40k edges), five heuristics only: no training; per-pair "
            "heuristics dominate",
            graph_seed=3,
            source={"model": "er", "n_left": 600, "n_right": 1070, "p": 0.063},
            # Katz is left out: the training spectral radius (~44) exceeds
            # 1/beta for the default grid's beta = 0.05, so grid_search raises
            # and the whole run dies.
            scorers=("pa", "cn", "jc", "aa", "ra"),
        ),
        Workload(
            name="large_blocks",
            why="5-block SBM with n=4200 > 4096: blocked training, lazy two-hop "
            "scorers and the truncated Katz series",
            graph_seed=5,
            source={
                "model": "sbm",
                "left_sizes": [420] * 5,
                "right_sizes": [420] * 5,
                "p_in": 0.01,
                "p_out": 0.0005,
            },
            scorers=("two_hop", "recon_two_hop", "lgae", "katz", "aa"),
            grids={"lgae_grid": ({"learning_rate": 0.01, "epochs": 2, "embed_dim": 16},)},
        ),
    )
}
