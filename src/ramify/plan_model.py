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
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
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
                "vertices": self.vertices.tolist()}

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
        return {key: getattr(self, key).tolist() for key in ("x", "y", "m")}

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
    m[q] L[q] for branch plans. ``layout`` is the plan shape that built
    the table.
    """

    owner: np.ndarray        # (S,) index of the owning path or branch
    interval: np.ndarray     # (S,) interval index within the owner
    a: np.ndarray            # (S, 2) segment start points
    b: np.ndarray            # (S, 2) segment end points
    length: np.ndarray       # (S,)
    midpoint: np.ndarray     # (S, 2)
    flux: np.ndarray         # (S,)
    density: np.ndarray      # (S,) leaf density of each branch interval; empty for path plans
    group_starts: np.ndarray = field(repr=False)  # (n,) first row of each owner
    layout: Layout = field(compare=False, repr=False)

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


@dataclass(frozen=True, eq=False)
class Layout:
    """Slot map of one plan shape, built once per descent stage, with the
    static columns of its segment tables, from which :meth:`table` builds the
    table at any vector. ``base`` is the vector of the plan the layout was
    built from; the feasibility projection restores its pinned slots.
    """

    offsets: tuple           # first slot of each owner's block, then the total size
    counts: tuple            # vertex count of each owner
    free: np.ndarray         # (N,) False on pinned slots
    base: np.ndarray         # (N,)
    clamp: np.ndarray        # slots kept nonnegative: branch heights and densities
    start_slots: np.ndarray  # (S, 2) x and y slots of each segment's start vertex
    m_slots: np.ndarray      # (S,) density slot of each segment; empty for path plans
    owner: np.ndarray        # (S,) index of the owning path or branch
    interval: np.ndarray     # (S,) interval index within the owner
    group_starts: np.ndarray  # (n,) first segment of each owner
    terminal_fixed: np.ndarray  # (n,) whether each owner's last vertex is pinned
    masses: np.ndarray | None  # (n,) path masses; None for branch plans

    @classmethod
    def of(cls, plan) -> "Layout":
        """Layout of a plan's shape, or a table's layout with the table's
        coordinates as its ``base``.

        An owner of K segments holds K + 1 x slots, K + 1 y slots and, in a
        branch plan, K density slots; a segment's end vertex has the slots
        one after its start vertex's. The origin vertex of every path and
        branch is pinned. Path terminals are pinned when the path's
        ``terminal_fixed`` flag is set. Densities are always free; the
        projection clamps them.
        """
        if isinstance(plan, SegmentTable):
            base = np.zeros(len(plan.layout.free))
            base[plan.layout.start_slots] = plan.a
            base[plan.layout.start_slots + 1] = plan.b
            base[plan.layout.m_slots] = plan.density
            return replace(plan.layout, base=base)
        owners = _owners(plan)
        shed = isinstance(plan, BranchPlan)
        if shed:  # a branch's block is its x, y and m in turn
            counts = np.array([len(o.x) for o in owners], dtype=int)
            base = np.concatenate([block for o in owners for block in (o.x, o.y, o.m)])
        else:
            vertices = [o.vertices for o in owners]
            counts = np.array(list(map(len, vertices)), dtype=int)
        offsets = np.concatenate([[0], np.cumsum((2 + shed) * counts - shed)])
        first, vertex_starts = offsets[:-1], np.cumsum(counts) - counts
        owner = np.repeat(np.arange(len(counts)), counts - 1)
        group_starts = vertex_starts - np.arange(len(counts))
        interval = np.arange(len(owner)) - group_starts[owner]
        x, count = first[owner] + interval, counts[owner]
        m_slots = x + 2 * count if shed else x[:0]
        free = np.ones(offsets[-1], dtype=bool)
        free[first] = free[first + counts] = False
        fixed = np.array([o.terminal_fixed for o in owners], dtype=bool)
        free[(first + counts - 1)[fixed]] = free[(first + 2 * counts - 1)[fixed]] = False
        clamp = np.zeros(len(free), dtype=bool)
        if shed:  # branch heights and densities
            clamp[x + count] = clamp[x + count + 1] = clamp[m_slots] = True
        else:  # every vertex in one concatenation, scattered to its x and y slots
            vertex_x = np.arange(counts.sum()) + np.repeat(first - vertex_starts, counts)
            base = np.zeros(len(free))
            vertex_slots = np.column_stack([vertex_x, vertex_x + np.repeat(counts, counts)])
            base[vertex_slots] = np.concatenate(vertices or [np.zeros((0, 2))])
        return cls(offsets=tuple(offsets.tolist()), counts=tuple(counts.tolist()), free=free,
                   base=base, clamp=np.flatnonzero(clamp),
                   start_slots=np.column_stack([x, x + count]), m_slots=m_slots,
                   owner=owner, interval=interval, group_starts=group_starts,
                   terminal_fixed=fixed,
                   masses=None if shed else np.array([p.mass for p in owners], dtype=float))

    def table(self, vector: np.ndarray) -> SegmentTable:
        """The segment table of the plan at ``vector``, built without the plan;
        the one builder of segment tables.

        A path's flux is its mass. A branch's is its downstream leaf mass
        m[p] L[p] / 2 + sum_{q > p} m[q] L[q], the tail summed from its tip inward.
        """
        a, b = vector[self.start_slots], vector[self.start_slots + 1]
        density = vector[self.m_slots]
        length = np.hypot(*(b - a).T)
        if self.masses is not None:
            flux = self.masses[self.owner]
        else:
            m_l = density * length
            segments = np.diff(np.append(self.group_starts, len(m_l)))
            back = segments[self.owner] - 1 - self.interval  # from the tip
            flux = 0.5 * m_l + _sums_before(m_l, self.owner, back, len(self.group_starts))
        return SegmentTable(owner=self.owner, interval=self.interval, a=a, b=b, length=length,
                            midpoint=0.5 * (a + b), flux=flux, density=density,
                            group_starts=self.group_starts, layout=self)


def segment_table(plan) -> SegmentTable:
    """The segment table of a path or branch plan; a table comes back unchanged."""
    if isinstance(plan, SegmentTable):
        return plan
    layout = Layout.of(plan)
    return layout.table(layout.base)


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
    crossings = _first_radius_crossings(plan, radius)
    seeds = np.empty_like(crossings)
    count = 0
    for crossing in crossings:
        if not (np.hypot(*(crossing - seeds[:count]).T) <= tol).any():
            seeds[count] = crossing
            count += 1
    return count


def _first_radius_crossings(plan: PathPlan, radius: float) -> np.ndarray:
    """(k, 2) first crossings of the circle of ``radius``, in path order.

    A path crosses on the segment into its first vertex v with
    x*x + y*y >= radius**2, unless that is its first vertex or the segment
    has zero length.
    """
    vertices = plan.all_vertices()
    counts = np.array([len(p.vertices) for p in plan.paths])
    starts = np.cumsum(counts) - counts
    x, y = vertices.T
    outside = np.flatnonzero(x * x + y * y >= radius * radius)
    # Each path's first vertex on or outside the circle, or the next path's start.
    first = np.append(outside, len(vertices))[np.searchsorted(outside, starts)]
    ends = first[(first > starts) & (first < starts + counts)]  # crossing segments' ends
    a = vertices[ends - 1]
    d = vertices[ends] - a
    qa = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    a, d, qa = a[qa != 0.0], d[qa != 0.0], qa[qa != 0.0]
    qb = 2.0 * (a[:, 0] * d[:, 0] + a[:, 1] * d[:, 1])
    qc = (a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1]) - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    t = np.clip((-qb + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * qa), 0.0, 1.0)
    return a + t[:, None] * d


def plan_to_dict(plan) -> dict:
    owners = _owners(plan)
    return {plan.json_key: [owner.to_dict() for owner in owners]}


def plan_from_dict(data: dict):
    for kind, owner in ((PathPlan, Path), (BranchPlan, Branch)):
        if kind.json_key in data:
            return kind(tuple(owner.from_dict(entry) for entry in data[kind.json_key]))
    raise ValueError("plan dictionary needs a 'paths' or 'branches' key")


_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, level: int = 0) -> str:
    """``value`` as the json module writes it with ``indent=2`` and
    ``sort_keys=True``, for a value nested ``level`` containers deep."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_WORDS.get(text, text)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = [encode_basestring_ascii(key) + ": " + _json_text(item, level + 1)
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        text = _float_list_text(value, level)
        if text is not None:
            return text
        items = [_json_text(item, level + 1) for item in value]
        brackets = "[]"
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)
    return _bracketed(brackets, items, level) if items else brackets


def _bracketed(brackets: str, items: list, level: int) -> str:
    """``items`` inside ``brackets``, one a line, indented as json indents a
    container ``level`` deep."""
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _float_list_text(values, level: int):
    """The JSON text of a list of Python floats, or of [float, float] lists,
    from one ``%`` template over the floats' reprs; None for any other list
    and for a non-finite float, which JSON spells NaN or Infinity."""
    types = set(map(type, values))
    if types == {float}:
        floats, item = tuple(values), "%r"
    elif types == {list} and set(map(len, values)) == {2}:
        floats = tuple(chain.from_iterable(values))
        if set(map(type, floats)) != {float}:
            return None
        item = _bracketed("[]", ["%r", "%r"], level + 1)
    else:
        return None
    text = _bracketed("[]", [item] * len(values), level) % floats
    return None if "n" in text else text  # repr spells both nan and inf with an n


def _write_json(path: str, payload: dict):
    """Write ``payload`` as indented, key-sorted JSON; every JSON output goes here."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(payload) + "\n")


def save_plan(plan, path: str):
    _write_json(path, plan_to_dict(plan))


def load_plan(path: str):
    with open(path, encoding="utf-8") as handle:
        return plan_from_dict(json.load(handle))
