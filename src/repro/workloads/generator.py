"""Workload-pair enumeration and cluster assignment.

§4.1: "We test every unique combination of these 9 applications, yielding
36 pairs.  Our setup divides the cluster in half, running one application
on the first half and the other on the second."
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.apps import APP_NAMES, build_apps
from repro.workloads.phases import Workload


def unique_pairs(apps: Sequence[str] = APP_NAMES) -> List[Tuple[str, str]]:
    """All unordered pairs of distinct applications (36 for the 9 apps)."""
    return list(combinations(apps, 2))


@dataclass(frozen=True)
class PairAssignment:
    """Which application each node of a cluster runs."""

    pair: Tuple[str, str]
    #: node id -> Workload instance for that node.
    workloads: Dict[int, Workload]

    @property
    def node_ids(self) -> List[int]:
        return sorted(self.workloads)

    def nodes_running(self, app: str) -> List[int]:
        return sorted(
            node_id
            for node_id, workload in self.workloads.items()
            if workload.app == app.upper()
        )


def assign_pair_to_cluster(
    pair: Tuple[str, str],
    node_ids: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
) -> PairAssignment:
    """Split ``node_ids`` in half: the first half runs ``pair[0]``, the
    second half ``pair[1]`` (first half gets the extra node when odd).
    A pair whose halves are the same app may run on one node.

    Each node receives its own jittered workload instance -- nodes running
    the same app do not finish at exactly the same instant, just like the
    real benchmark runs.  All of them draw their jitter in one call
    (:func:`~repro.workloads.apps.build_apps`), in node order.
    """
    ids = list(node_ids)
    first, second = pair
    if len(ids) < 2 and not (ids and first.upper() == second.upper()):
        raise ValueError("need at least two nodes to run a pair")
    half = (len(ids) + 1) // 2
    apps = [first] * half + [second] * (len(ids) - half)
    workloads = dict(zip(ids, build_apps(apps, rng=rng, scale=scale)))
    return PairAssignment(pair=(first.upper(), second.upper()), workloads=workloads)
