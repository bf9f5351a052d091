"""Exact branched-transport costs on merged tree structures.

These serve as ground truth for the mollified functionals: the cost of a
finite tree is the sum over edges of length times flux to the
concavity exponent alpha. The tests' ``oracles`` module holds the exact
multiplicity and a global search over single-bifurcation trees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .plan_model import PathPlan


class TopologyError(ValueError):
    """Raised when a plan's merged image is not a tree rooted at the origin."""


@dataclass(frozen=True)
class TreeTopology:
    """Merged tree image of a path plan: nodes, directed edges, leaf masses.

    Only :func:`extract_topology` builds one, so it is a tree by
    construction: every node but the root has one parent made before it.
    """

    nodes: np.ndarray                 # (N, 2) read-only positions, node 0 is the root
    edges: tuple                      # of (parent, child, length, flux), by child
    leaves: dict                      # node index -> delivered mass


def extract_topology(plan: PathPlan, merge_tol: float) -> TreeTopology:
    """Merge a path plan into a rooted tree by walking shared prefixes.

    Vertices are identified greedily from the root outward: each path step
    either follows an existing child node within ``merge_tol`` of the next
    vertex or creates a new node. A step landing within tolerance of an
    ancestor of the current node means the path doubles back, which is
    rejected. Each edge is stored under its child node, and carries the
    positive mass of every path through it.
    """
    if merge_tol < 0.0:
        raise ValueError("merge_tol must be nonnegative")
    # The squared distance decides outside a relative band of 1e-9 around
    # merge_tol**2, far wider than its rounding; inside the band, and for a
    # merge_tol whose square is subnormal, np.hypot decides, as it always did.
    tol2 = merge_tol * merge_tol
    below, above = (tol2 * (1.0 - 1e-9), tol2 * (1.0 + 1e-9)) \
        if tol2 == 0.0 or tol2 >= sys.float_info.min else (-1.0, np.inf)
    nodes = [(0.0, 0.0)]
    parent_of = [None]
    children = [[]]
    flux_in = [0.0]
    leaves: dict = {}

    def within(x: float, y: float, node: int) -> bool:
        node_x, node_y = nodes[node]
        dx, dy = x - node_x, y - node_y
        d2 = dx * dx + dy * dy
        return d2 < below or (d2 <= above and bool(np.hypot(dx, dy) <= merge_tol))

    for idx, path in enumerate(plan.paths):
        current = 0
        for x, y in path.vertices[1:].tolist():
            if within(x, y, current):
                continue  # repeated vertex within tolerance, stay put
            chosen = next((child for child in children[current] if within(x, y, child)), None)
            if chosen is None:
                anc = parent_of[current]
                while anc is not None:
                    if within(x, y, anc):
                        raise TopologyError(
                            f"path {idx} doubles back onto its own trunk near node {anc}"
                        )
                    anc = parent_of[anc]
                chosen = len(nodes)
                nodes.append((x, y))
                parent_of.append(current)
                children.append([])
                children[current].append(chosen)
                flux_in.append(0.0)
            flux_in[chosen] += path.mass
            current = chosen
        leaves[current] = leaves.get(current, 0.0) + path.mass
    node_arr = np.array(nodes)
    node_arr.flags.writeable = False
    parents = np.array(parent_of[1:], dtype=int)
    lengths = np.hypot(*(node_arr[1:] - node_arr[parents]).T).tolist()
    edges = tuple((parent, child, length, flux_in[child])
                  for child, (parent, length) in enumerate(zip(parents.tolist(), lengths), 1))
    return TreeTopology(nodes=node_arr, edges=edges, leaves=leaves)


def gilbert_energy(topology: TreeTopology, alpha: float) -> float:
    """Sum over edges of length * flux^alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return float(sum(length * flux ** alpha for _, _, length, flux in topology.edges))


def exact_plan_cost(plan: PathPlan, alpha: float, merge_tol: float = 0.0) -> float:
    """Exact cost of a path plan after merging shared prefixes."""
    return gilbert_energy(extract_topology(plan, merge_tol), alpha)
