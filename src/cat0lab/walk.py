"""Step distributions, bounded-depth admissibility certification, and the
seeded random-walk sampler Z_n = w_1 ... w_n.

Sampling is driven by a counter-based generator keyed by (seed, path index),
so different paths are independent streams and a path's result does not
depend on which other paths are sampled, or in which order.

Each model's walk loop lives in its kernel module: `orbit(atoms, base,
increments, stored, xi=None)` takes the stored steps as one increasing
sequence, which it consumes as it walks, and returns the distances
d(Z_k x, x) at those steps only, as a float array, and the product states
at step 0 and at those steps, which `snapshot_point`,
`snapshot_horofunction` and `snapshot_boundary` read.  Given a boundary
point xi it returns the horofunction values h_xi(Z_k x) in place of the
states, read inside the loop (on T4 from the match length of its letter
stack, kept as letters are pushed and popped) into a float array, so a
dense read holds no Python object per step.
`sample_walk` stores step 0 and only the steps its reader names: on H2 a
distance costs more than the step itself.  Readers of many path ends take
them from `sample_terminals`, which walks the paths together through the
kernel's `orbit_paths`, one numpy operation per step for all of them, with
the scalar loop's float operations in the same order, so every path ends
on the same bits as when `sample_walk` walks it alone.

Hyperbolic-factor products are tracked as float matrices with a separate
power-of-two exponent, so a step is one matrix product.  The stored steps
read them as Frobenius-normalised matrices with a log-scale factor;
orbit points, distances to the basepoint and horofunction values are extracted
from that state in log space, which keeps traces faithful far beyond the
float64 coordinate range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DistributionError, UsageError, real
from .models import (
    KERNELS,
    BoundaryPoint,
    Isometry,
    Model,
    Point,
    isometry_from_json,
    isometry_key,
    same_model,
)
from .isometry import compose, inverse

_PROB_TOL = 1e-12
# paths walked together by `sample_terminals`: a block holds about n KB of
# increments, and the batched rate levels off from about 512 paths
_PATH_BLOCK = 1024


@dataclass(frozen=True)
class StepDistribution:
    """Finitely supported probability measure on isometries of one model."""

    model: Model
    atoms: tuple[tuple[Isometry, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise DistributionError("a step distribution needs at least one atom")
        total = 0.0
        for iso, p in self.atoms:
            if iso.model is not self.model:
                raise DistributionError("atom model does not match the distribution model")
            if not p > 0:
                raise DistributionError("atom probabilities must be positive")
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise DistributionError(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, isometries) -> "StepDistribution":
        isometries = list(isometries)
        p = 1.0 / len(isometries)
        return cls(isometries[0].model, tuple((g, p) for g in isometries))

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    @property
    def isometries(self) -> tuple[Isometry, ...]:
        return tuple(g for g, _ in self.atoms)

    @classmethod
    def from_json(cls, obj: dict) -> "StepDistribution":
        atoms = tuple(
            (isometry_from_json(a["isometry"]), real(a["p"])) for a in obj["atoms"]
        )
        return cls(Model(obj["model"]), atoms)


class AdmissibilityReport(NamedTuple):
    depth: int
    elements_reached: int
    symmetric_closure_hit: bool
    certified: bool


def validate_distribution(spec: StepDistribution, depth: int) -> AdmissibilityReport:
    """Breadth-first closure of atom products up to `depth`; the support is
    certified to generate a group (hence a semigroup with inverses) when every
    atom's inverse shows up in the closure."""
    if depth < 1:
        raise UsageError("closure depth must be at least 1")
    targets = {isometry_key(inverse(g)) for g, _ in spec.atoms}
    seen: dict = {}
    frontier = []
    for g, _ in spec.atoms:
        k = isometry_key(g)
        if k not in seen:
            seen[k] = g
            frontier.append(g)
    found = targets & set(seen)
    d = 1
    while d < depth and len(found) < len(targets):
        nxt = []
        for g in frontier:
            for a, _ in spec.atoms:
                h = compose(g, a)
                k = isometry_key(h)
                if k not in seen:
                    seen[k] = h
                    nxt.append(h)
                    if k in targets:
                        found.add(k)
        frontier = nxt
        d += 1
        if not frontier:
            break
    hit = len(found) == len(targets)
    return AdmissibilityReport(
        depth=depth,
        elements_reached=len(seen),
        symmetric_closure_hit=hit,
        certified=hit,
    )


def snapshot_point(model: Model, snap, basepoint: Point) -> Point:
    """The orbit point Z x of a snapshot."""
    return Point(model, KERNELS[model].snapshot_point(snap, basepoint.data))


def snapshot_horofunction(model: Model, snap, basepoint: Point, xi: BoundaryPoint) -> float:
    """h_xi with basepoint x evaluated at the orbit point Z x of a snapshot."""
    return float(KERNELS[model].snapshot_horofunction(snap, basepoint.data, xi.data))


@dataclass(frozen=True)
class WalkTrace:
    """One seeded realization of the walk, with stored increments, and the
    distances to the basepoint and state snapshots at the stored steps:
    `base_distances[i]` and `snapshots[i]` belong to step `steps[i]`.  A
    walk read toward a boundary point `xi` keeps no snapshots: it holds the
    horofunction values `horofunctions[i]` = h_xi(Z_k x) with basepoint x
    instead."""

    spec: StepDistribution
    basepoint: Point
    increments: np.ndarray
    steps: np.ndarray
    base_distances: np.ndarray
    snapshots: tuple = field(repr=False)
    xi: BoundaryPoint | None = None
    horofunctions: np.ndarray | None = field(default=None, repr=False)

    @property
    def model(self) -> Model:
        return self.spec.model

    def point(self, i: int) -> Point:
        """Orbit point Z_k x of the i-th stored snapshot."""
        return snapshot_point(self.model, self.snapshots[i], self.basepoint)

    def image(self, i: int, xi: BoundaryPoint) -> BoundaryPoint:
        """Boundary image Z_k xi under the i-th stored snapshot."""
        return BoundaryPoint(self.model, KERNELS[self.model].snapshot_boundary(
            self.snapshots[i], self.basepoint.data, xi.data))


def _uniforms(seed: int, path_index: int, n: int) -> np.ndarray:
    # an explicit uint64 key: numpy turns a list holding a value of 2**63 or
    # more into float64, which collapses distinct seeds onto one stream
    seed, path_index = int(seed), int(path_index)
    if not (0 <= seed < 1 << 64 and 0 <= path_index < 1 << 64):
        raise UsageError("seed and path index must lie in [0, 2**64)")
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def draw_increments(spec: StepDistribution, n: int, seed: int, path_index: int = 0) -> np.ndarray:
    # only the inner boundaries are searched, so the last atom takes every u
    # above them even when the cumulative sum rounds below 1
    cum = np.cumsum(spec.probabilities)[:-1]
    u = _uniforms(seed, path_index, n)
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def sample_walk(spec: StepDistribution, x: Point, n: int, seed: int,
                path_index: int = 0, steps=None, xi: BoundaryPoint | None = None) -> WalkTrace:
    """Deterministic walk realization for (spec, x, n, seed, path_index).

    Snapshots (read by `WalkTrace.point`) and distances to the basepoint are
    stored at step 0 and at the named `steps`, each in [0, n]; `None`
    names every step, which the kernel then walks through as a range.
    Given a boundary point `xi`, the kernel reads h_xi(Z_k x) at those
    steps inside its walk loop, into a float array, and no snapshot is
    kept.  Which steps are stored never changes the walk.
    """
    same_model(spec.isometries[0], x)
    if xi is not None:
        same_model(x, xi)
    if n < 0:
        raise UsageError("walk length must be nonnegative")
    if steps is None:
        stored, steps = range(1, n + 1), np.arange(n + 1)
    else:
        stored = sorted({0, *map(int, steps)})
        if stored[0] < 0 or stored[-1] > n:
            raise UsageError(f"stored steps must lie in [0, n] = [0, {n}]")
        stored, steps = stored[1:], np.array(stored, dtype=np.int64)
    increments = draw_increments(spec, n, seed, path_index)
    dists, reads = KERNELS[spec.model].orbit([g.data for g in spec.isometries], x.data,
                                             increments.tolist(), stored,
                                             None if xi is None else xi.data)
    return WalkTrace(
        spec=spec,
        basepoint=x,
        increments=increments,
        steps=steps,
        base_distances=np.concatenate(([0.0], dists)),
        snapshots=tuple(reads) if xi is None else (),
        xi=xi,
        horofunctions=None if xi is None else reads,
    )


def sample_terminals(spec: StepDistribution, x: Point, n: int, seed: int, m: int):
    """Terminal distances d(Z_n x, x), as an array, and terminal snapshots of
    paths 0..m-1: bit for bit what `sample_walk(spec, x, n, seed, path_index=i,
    steps=(n,))` stores last.  From the kernel's `BATCH_MIN_PATHS` paths on,
    blocks of paths walk together through its `orbit_paths`, with the
    increments of each path in one column; below that, one at a time."""
    same_model(spec.isometries[0], x)
    if n < 0:
        raise UsageError("walk length must be nonnegative")
    kernel = KERNELS[spec.model]
    if n == 0 or m < kernel.BATCH_MIN_PATHS:
        dists, snaps = [], []
        for i in range(m):
            tr = sample_walk(spec, x, n, seed, path_index=i, steps=(n,))
            dists.append(tr.base_distances[-1])
            snaps.append(tr.snapshots[-1])
        return np.array(dists, dtype=float), snaps
    atoms = [g.data for g in spec.isometries]
    dists, snaps = [], []
    for first in range(0, m, _PATH_BLOCK):
        paths = range(first, min(first + _PATH_BLOCK, m))
        # the smallest integer type that holds every atom index
        increments = np.empty((n, len(paths)), dtype=np.min_scalar_type(len(atoms) - 1))
        for j, i in enumerate(paths):
            increments[:, j] = draw_increments(spec, n, seed, i)
        block_dists, block_snaps = kernel.orbit_paths(atoms, x.data, increments)
        dists += block_dists
        snaps += block_snaps
    return np.array(dists), snaps

