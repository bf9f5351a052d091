"""Data model for irrigation plans rooted at the origin.

Two plan flavors share most of the machinery. A path plan carries one
polyline per delivered atom, each transporting the atom's full mass from
the source at the origin to the atom position. A branch plan carries
polylines with a piecewise-constant leaf density along each branch, so
mass is shed continuously instead of delivered at terminals.

A plan's ``owners`` (its paths or branches) validate and serialize
themselves; each kind's flux rule lives in the table builder.

All value objects freeze their arrays after validation; operations that
modify a plan build a new one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .geometry import bounding_box_diameter


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _require_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class TargetMeasure:
    """Finite atomic measure to irrigate: positions (n, 2) and masses (n,)."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = _freeze(self.positions).reshape(-1, 2)
        mas = _freeze(self.masses).reshape(-1)
        if len(pos) == 0:
            raise ValueError("a target measure needs at least one atom")
        if len(pos) != len(mas):
            raise ValueError("positions and masses must have matching lengths")
        _require_finite(pos, "atom positions")
        _require_finite(mas, "atom masses")
        if np.any(mas <= 0.0):
            raise ValueError("atom masses must be positive")
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if pos[i, 0] == pos[j, 0] and pos[i, 1] == pos[j, 1]:
                    raise ValueError(f"atoms {i} and {j} share a position")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class Path:
    """One transport path: a polyline from the origin carrying a fixed mass."""

    vertices: np.ndarray
    mass: float
    terminal_fixed: bool = True
    densities: ClassVar[np.ndarray] = _freeze(np.zeros(0))  # a path sheds no mass

    def __post_init__(self):
        v = _freeze(self.vertices)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("path vertices must be an (K+1, 2) array with K >= 1")
        _require_finite(v, "path vertices")
        if v[0, 0] != 0.0 or v[0, 1] != 0.0:
            raise ValueError("paths must start at the origin")
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise ValueError("path mass must be positive and finite")
        object.__setattr__(self, "vertices", v)

    @property
    def segments(self) -> int:
        return self.vertices.shape[0] - 1

    def to_dict(self) -> dict:
        return {"mass": float(self.mass), "terminal_fixed": bool(self.terminal_fixed),
                "vertices": [[float(x), float(y)] for x, y in self.vertices]}

    @classmethod
    def from_dict(cls, entry: dict) -> "Path":
        return cls(vertices=np.asarray(entry["vertices"], dtype=float), mass=float(entry["mass"]),
                   terminal_fixed=bool(entry.get("terminal_fixed", True)))


class _Plan:
    """The view both plan kinds share over their owners, paths or branches."""

    json_key: ClassVar[str]  # names both the owners' field and their JSON key

    @property
    def owners(self) -> tuple:
        return getattr(self, self.json_key)

    def all_vertices(self) -> np.ndarray:
        return np.concatenate([o.vertices for o in self.owners] or [np.zeros((0, 2))], axis=0)

    def diameter(self) -> float:
        return bounding_box_diameter(self.all_vertices())


@dataclass(frozen=True)
class PathPlan(_Plan):
    """A bundle of transport paths from a common source at the origin."""

    paths: tuple
    json_key: ClassVar[str] = "paths"

    def __post_init__(self):
        paths = tuple(self.paths)
        if not all(isinstance(p, Path) for p in paths):
            raise ValueError("a path plan holds Path entries")
        object.__setattr__(self, "paths", paths)

    @property
    def total_mass(self) -> float:
        return float(sum(p.mass for p in self.paths))


@dataclass(frozen=True)
class Branch:
    """One branch: a polyline with a piecewise-constant leaf density.

    ``x`` and ``y`` hold the K+1 break-point coordinates on the uniform
    parameter grid p/K; ``m`` holds the K per-interval densities.
    """

    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    terminal_fixed: ClassVar[bool] = False

    def __post_init__(self):
        x = _freeze(self.x).reshape(-1)
        y = _freeze(self.y).reshape(-1)
        m = _freeze(self.m).reshape(-1)
        if len(x) != len(y) or len(x) != len(m) + 1 or len(m) < 1:
            raise ValueError("branch arrays must satisfy len(x) == len(y) == len(m) + 1")
        _require_finite(x, "branch x coordinates")
        _require_finite(y, "branch y coordinates")
        _require_finite(m, "branch densities")
        if x[0] != 0.0 or y[0] != 0.0:
            raise ValueError("branches must start at the origin")
        if np.any(y < 0.0):
            raise ValueError("branch y coordinates must be nonnegative")
        if np.any(m < 0.0):
            raise ValueError("branch densities must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", m)

    @property
    def segments(self) -> int:
        return len(self.m)

    @property
    def vertices(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    @property
    def densities(self) -> np.ndarray:
        return self.m

    def to_dict(self) -> dict:
        return {key: [float(v) for v in getattr(self, key)] for key in ("x", "y", "m")}

    @classmethod
    def from_dict(cls, entry: dict) -> "Branch":
        return cls(**{key: np.asarray(entry[key], dtype=float) for key in ("x", "y", "m")})


@dataclass(frozen=True)
class BranchPlan(_Plan):
    """A bundle of density-carrying branches rooted at the origin."""

    branches: tuple
    json_key: ClassVar[str] = "branches"

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("a branch plan needs at least one branch")
        if not all(isinstance(b, Branch) for b in branches):
            raise ValueError("a branch plan holds Branch entries")
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True)
class SegmentTable:
    """Flattened per-segment view of a plan, shared by all cost evaluators.

    One row per polyline segment, grouped contiguously by owner. ``flux``
    holds the transported mass at the segment midpoint: the path mass for
    path plans and the downstream leaf mass m[p] L[p] / 2 + sum_{q > p}
    m[q] L[q] for branch plans.
    """

    owner: np.ndarray        # (S,) index of the owning path or branch
    interval: np.ndarray     # (S,) interval index within the owner
    a: np.ndarray            # (S, 2) segment start points
    b: np.ndarray            # (S, 2) segment end points
    length: np.ndarray       # (S,)
    midpoint: np.ndarray     # (S, 2)
    flux: np.ndarray         # (S,)
    density: np.ndarray      # (S,) leaf density of each branch interval; empty for path plans
    terminal_fixed: np.ndarray  # (n,) whether each owner's last vertex is pinned
    group_starts: np.ndarray = field(repr=False)  # (n,) first row of each owner

    @property
    def size(self) -> int:
        return len(self.length)

    @property
    def segments(self) -> np.ndarray:
        """(n,) segment count of each owner."""
        return np.diff(np.append(self.group_starts, self.size))


def _owners(plan) -> tuple:
    """A plan's paths or branches; ``type(plan)(owners)`` rebuilds the plan."""
    if isinstance(plan, _Plan):
        return plan.owners
    raise TypeError("expected a PathPlan or BranchPlan")


def _sums_before(values, owner, position, owners: int) -> np.ndarray:
    """For each value, the sum of its owner's values at lower ``position``,
    added one at a time in position order, as a cumulative sum would."""
    rows = np.zeros((owners, position.max() + 1))
    rows[owner, position] = values
    return np.where(position > 0, np.cumsum(rows, axis=1)[owner, position - 1], 0.0)


def _table(columns: tuple, a: np.ndarray, b: np.ndarray, density: np.ndarray) -> SegmentTable:
    """The one builder of segment tables: a plan shape's static ``columns``
    (owner, interval, group starts, terminal flags, path masses or None for
    branches) at segment ends ``a``, ``b`` and interval densities.

    A path's flux is its mass. A branch's is its downstream leaf mass
    m[p] L[p] / 2 + sum_{q > p} m[q] L[q], the tail summed from its tip inward.
    """
    owner, interval, group_starts, terminal_fixed, masses = columns
    length = np.hypot(*(b - a).T)
    if masses is not None:
        flux = masses[owner]
    else:
        m_l = density * length
        back = np.diff(np.append(group_starts, len(m_l)))[owner] - 1 - interval  # from the tip
        flux = 0.5 * m_l + _sums_before(m_l, owner, back, len(group_starts))
    return SegmentTable(owner=owner, interval=interval, a=a, b=b, length=length,
                        midpoint=0.5 * (a + b), flux=flux, density=density,
                        terminal_fixed=terminal_fixed, group_starts=group_starts)


def segment_table(plan) -> SegmentTable:
    """The segment table of a path or branch plan; a table comes back unchanged."""
    if isinstance(plan, SegmentTable):
        return plan
    owners = _owners(plan)
    vertices = [o.vertices for o in owners]
    counts = np.array([len(v) - 1 for v in vertices], dtype=int)
    owner = np.repeat(np.arange(len(counts)), counts)
    group_starts = np.cumsum(counts) - counts
    columns = (owner, np.arange(len(owner)) - group_starts[owner], group_starts,
               np.array([o.terminal_fixed for o in owners], dtype=bool),
               np.array([p.mass for p in owners]) if isinstance(plan, PathPlan) else None)
    return _table(columns, np.concatenate([v[:-1] for v in vertices] or [np.zeros((0, 2))]),
                  np.concatenate([v[1:] for v in vertices] or [np.zeros((0, 2))]),
                  np.concatenate([o.densities for o in owners] or [np.zeros(0)]))


def half_circle_targets(n: int, radius: float = 1.0, total_mass: float = 1.0) -> TargetMeasure:
    """n equally weighted atoms spread over a half circumference.

    Atoms sit at angles k pi / (n - 1) for k = 0..n-1 (a single atom sits
    at angle 0), so the first atom is at (radius, 0) and the last at
    (-radius, 0).
    """
    if n < 1:
        raise ValueError("need at least one atom")
    if radius <= 0.0 or total_mass <= 0.0:
        raise ValueError("radius and total_mass must be positive")
    angles = np.zeros(1) if n == 1 else np.linspace(0.0, np.pi, n)
    positions = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    masses = np.full(n, total_mass / n)
    return TargetMeasure(positions=positions, masses=masses)


def build_star_plan(targets: TargetMeasure, segments_per_path: int = 16) -> PathPlan:
    """Straight path from the origin to each atom, equally spaced knots."""
    if segments_per_path < 1:
        raise ValueError("segments_per_path must be at least 1")
    fractions = np.linspace(0.0, 1.0, segments_per_path + 1)[:, None]
    paths = []
    for pos, mass in zip(targets.positions, targets.masses):
        vertices = fractions * pos[None, :]
        vertices[0] = 0.0
        vertices[-1] = pos
        paths.append(Path(vertices=vertices, mass=float(mass), terminal_fixed=True))
    return PathPlan(paths=tuple(paths))


def build_fan_branches(
    n: int,
    spread_angle: float = np.pi / 2,
    length0: float = 1.0,
    segments: int = 10,
    m_init: float = 0.1,
) -> BranchPlan:
    """n straight branches fanned across ``spread_angle`` about the vertical.

    A single branch points straight up; otherwise directions are equally
    spaced over the spread, all with uniform initial density ``m_init``.
    """
    if n < 1:
        raise ValueError("need at least one branch")
    if not 0.0 < spread_angle < np.pi:
        raise ValueError("spread_angle must lie in (0, pi)")
    if length0 <= 0.0 or segments < 1 or m_init < 0.0:
        raise ValueError("invalid fan parameters")
    if n == 1:
        angles = np.array([np.pi / 2])
    else:
        angles = np.pi / 2 + np.linspace(-spread_angle / 2, spread_angle / 2, n)
    fractions = np.linspace(0.0, 1.0, segments + 1)
    branches = []
    for phi in angles:
        x = fractions * length0 * np.cos(phi)
        y = fractions * length0 * np.sin(phi)
        x[0] = 0.0
        y[0] = 0.0
        branches.append(Branch(x=x, y=np.maximum(y, 0.0), m=np.full(segments, m_init)))
    return BranchPlan(branches=tuple(branches))


def _zigzag_path(terminal: np.ndarray, total_length: float, legs: int) -> np.ndarray:
    """Vertices of a sawtooth polyline from the origin to ``terminal``.

    The polyline has ``legs`` equal-length legs alternating above and on
    the x axis, with total length exactly ``total_length``. Requires an
    even leg count and a length strictly exceeding the straight distance.
    """
    if legs < 2 or legs % 2 != 0:
        raise ValueError("legs must be an even count of at least 2")
    span = float(np.hypot(terminal[0], terminal[1]))
    leg = total_length / legs
    step = span / legs
    if leg <= step:
        raise ValueError("total_length must exceed the straight distance")
    rise = np.sqrt(leg * leg - step * step)
    fractions = np.linspace(0.0, 1.0, legs + 1)
    vertices = fractions[:, None] * np.asarray(terminal, dtype=float)[None, :]
    offsets = np.zeros(legs + 1)
    offsets[1::2] = rise
    direction = np.array([-terminal[1], terminal[0]]) / span
    vertices = vertices + offsets[:, None] * direction[None, :]
    vertices[0] = 0.0
    vertices[-1] = terminal
    return vertices


def saturated_pair_plans(l1: float = 4.0, l2: float = 0.1, delta: float = 0.1,
                         m1: float = 1.0, m2: float = 1.0, width: float = 0.1,
                         legs: int = 100):
    """Two-path plans witnessing the value drop from lengthening a path.

    Both plans bundle a long coiled path with a short one between the
    same endpoints, the whole configuration confined to a region about
    ``width`` across. Lengths are given in units where the short path
    has length l2: the long path has physical length width * l1 / l2 and
    the lengthened variant replaces the straight short path by a
    sawtooth of length width * (l2 + delta) / l2. Returns (plan_short,
    plan_long, eps) where eps is ten times the configuration diameter,
    large enough that a unit-at-zero kernel is nearly flat across it.
    """
    if not 0.0 < l2 < l2 + delta < 1.0 < l1:
        raise ValueError("need 0 < l2 < l2 + delta < 1 < l1")
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError("masses must be positive")
    if width <= 0.0:
        raise ValueError("width must be positive")
    scale = width / l2  # short path spans the confinement width
    terminal = np.array([width, 0.0])
    long_path = Path(vertices=_zigzag_path(terminal, scale * l1, legs), mass=m1)
    fractions = np.linspace(0.0, 1.0, 5)[:, None]
    straight = fractions * terminal[None, :]
    straight[0] = 0.0
    straight[-1] = terminal
    short_straight = Path(vertices=straight, mass=m2)
    short_long = Path(vertices=_zigzag_path(terminal, scale * (l2 + delta), 4), mass=m2)
    plan_short = PathPlan(paths=(long_path, short_straight))
    plan_long = PathPlan(paths=(long_path, short_long))
    diameter = max(plan_short.diameter(), plan_long.diameter())
    return plan_short, plan_long, 10.0 * diameter


def random_branch_plan(rng: np.random.Generator, max_branches: int = 4,
                       max_segments: int = 6) -> BranchPlan:
    """Strictly feasible random branch plan for derivative checking.

    Branch heights stay well above zero and densities well above zero,
    so small coordinate probes in any direction remain feasible.
    """
    n = int(rng.integers(1, max_branches + 1))
    branches = []
    for _ in range(n):
        segments = int(rng.integers(2, max_segments + 1))
        angle = rng.uniform(0.35, np.pi - 0.35)
        length = rng.uniform(0.6, 1.4)
        fractions = np.linspace(0.0, 1.0, segments + 1)
        x = fractions * length * np.cos(angle)
        y = fractions * length * np.sin(angle)
        wiggle = 0.06 * length
        x[1:] += rng.uniform(-wiggle, wiggle, segments)
        y[1:] += rng.uniform(-wiggle, wiggle, segments)
        y[1:] = np.maximum(y[1:], 0.03)
        x[0] = 0.0
        y[0] = 0.0
        m = rng.uniform(0.1, 1.0, segments)
        branches.append(Branch(x=x, y=y, m=m))
    return BranchPlan(branches=tuple(branches))


def crossing_cluster_count(plan: PathPlan, radius: float = 0.2, tol: float = 0.05) -> int:
    """Number of distinct trunks crossing a circle around the source.

    Each path's first crossing of the circle of the given radius is
    collected; crossing points are then clustered greedily in path order,
    joining the first existing cluster seed within ``tol``. Paths that
    never reach the radius are skipped.
    """
    seeds = []
    for path in plan.paths:
        crossing = _first_radius_crossing(path.vertices, radius)
        if crossing is None:
            continue
        for seed in seeds:
            if np.hypot(*(crossing - seed)) <= tol:
                break
        else:
            seeds.append(crossing)
    return len(seeds)


def _first_radius_crossing(vertices: np.ndarray, radius: float):
    r2 = radius * radius
    for i in range(len(vertices) - 1):
        a, b = vertices[i], vertices[i + 1]
        if (a * a).sum() >= r2:
            break
        if (b * b).sum() < r2:
            continue
        d = b - a
        qa = (d * d).sum()
        if qa == 0.0:
            continue
        qb = 2.0 * (a * d).sum()
        qc = (a * a).sum() - r2
        disc = qb * qb - 4.0 * qa * qc
        t = (-qb + np.sqrt(max(disc, 0.0))) / (2.0 * qa)
        t = min(max(t, 0.0), 1.0)
        return a + t * d
    return None


def plan_to_dict(plan) -> dict:
    owners = _owners(plan)
    return {plan.json_key: [owner.to_dict() for owner in owners]}


def plan_from_dict(data: dict):
    for kind, owner in ((PathPlan, Path), (BranchPlan, Branch)):
        if kind.json_key in data:
            return kind(tuple(owner.from_dict(entry) for entry in data[kind.json_key]))
    raise ValueError("plan dictionary needs a 'paths' or 'branches' key")


def _write_json(path: str, payload: dict):
    """Write ``payload`` as indented, key-sorted JSON; every JSON output goes here."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_plan(plan, path: str):
    _write_json(path, plan_to_dict(plan))


def load_plan(path: str):
    with open(path, encoding="utf-8") as handle:
        return plan_from_dict(json.load(handle))
