"""Model-tagged value types and their JSON readers.

Four explicit model spaces are supported:

* ``E2``   -- the Euclidean plane.
* ``H2``   -- the hyperbolic plane in upper half-plane coordinates.
* ``T4``   -- the Cayley graph of the rank-two free group: a 4-regular tree
  with the word metric, vertex granular.
* ``H2xR`` -- the metric product of ``H2`` and a real line.

Each model's geometry lives in one kernel module (`_e2`, `_h2`, `_t4`,
`_h2xr`) with the same function names on raw payloads; `KERNELS` maps a
model to its module.  Public functions unwrap their tagged arguments, look
the model up once in that table, and re-tag the result, so no estimator
needs to know which model it runs on.  A JSON point, boundary object or
isometry payload is read by passing its keys to the kernel's `point`,
`boundary` or `isometry`.  A kernel module executes on its first attribute
access (`importlib.util.LazyLoader`), so a run executes only the kernels of
the models it uses.

Values are immutable, and their constructors reject NaN, infinite and
non-numeric coordinates (a JSON string or bool is no number).  Each kernel
has one metric, `dist`, and point equality reads it.  All approximate
comparisons in the package use the one fixed tolerance `TOLERANCE`; no run
can change it.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import UsageError, finite

TOLERANCE = 1e-9
ISOMETRY_KEY_DIGITS = 9  # decimal places an isometry key keeps of each entry


class Model(str, Enum):
    E2 = "E2"
    H2 = "H2"
    T4 = "T4"
    H2xR = "H2xR"


def _lazy_kernel(name: str):
    """The kernel module `name`, registered in sys.modules and on the package,
    whose code runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__package__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


KERNELS = {model: _lazy_kernel(f"_{model.value.lower()}") for model in Model}
_e2, _h2, _t4, _h2xr = KERNELS.values()


@dataclass(frozen=True)
class Point:
    """A location in one of the model spaces.

    data layout per model: E2/H2 complex number, T4 reduced word,
    H2xR pair (complex, height).
    """

    model: Model
    data: Any


@dataclass(frozen=True)
class BoundaryPoint:
    """An asymptotic class of geodesic rays.

    data layout per model: E2 angle in [0, 2pi); H2 extended real;
    T4 (prefix, period) word pair; H2xR (xi or None, slope).
    """

    model: Model
    data: Any


@dataclass(frozen=True)
class Isometry:
    """A model-tagged isometry.

    data layout per model: E2 (rotation angle, translation as complex);
    H2 normalised 2x2 matrix tuple; T4 reduced word; H2xR (matrix, shift).
    """

    model: Model
    data: Any


# -- constructors -------------------------------------------------------------

def e2_point(x: float, y: float) -> Point:
    return Point(Model.E2, _e2.point((x, y)))


def h2_point(x: float, y: float) -> Point:
    return Point(Model.H2, _h2.point((x, y)))


def t4_point(word: str) -> Point:
    return Point(Model.T4, _t4.point(word))


def h2xr_point(x: float, y: float, height: float) -> Point:
    return Point(Model.H2xR, _h2xr.point((x, y, height)))


def e2_boundary(theta: float) -> BoundaryPoint:
    return BoundaryPoint(Model.E2, _e2.boundary(theta))


def h2_boundary(xi: float) -> BoundaryPoint:
    return BoundaryPoint(Model.H2, _h2.boundary(xi))


def t4_boundary(prefix: str, period: str) -> BoundaryPoint:
    return BoundaryPoint(Model.T4, _t4.boundary(prefix, period))


def h2xr_boundary(xi, alpha: float) -> BoundaryPoint:
    return BoundaryPoint(Model.H2xR, _h2xr.boundary(xi, alpha))


def e2_isometry(angle: float, v: tuple[float, float]) -> Isometry:
    return Isometry(Model.E2, _e2.isometry(angle, v))


def h2_isometry(a: float, b: float, c: float, d: float) -> Isometry:
    return Isometry(Model.H2, _h2.isometry((a, b, c, d)))


def t4_isometry(word: str) -> Isometry:
    return Isometry(Model.T4, _t4.isometry(word))


def h2xr_isometry(matrix, shift: float) -> Isometry:
    if isinstance(matrix, Isometry):
        if matrix.model is not Model.H2:
            raise UsageError("the horizontal part must be an H2 isometry")
        return Isometry(Model.H2xR, (matrix.data, finite(shift)))
    return Isometry(Model.H2xR, _h2xr.isometry(matrix, shift))


def identity(model: Model) -> Isometry:
    return Isometry(model, KERNELS[model].IDENTITY)


def same_model(*tagged) -> Model:
    if tagged:
        model = tagged[0].model
        for v in tagged:
            if v.model is not model:
                break
        else:
            return model
    models = {v.model for v in tagged}
    raise UsageError(f"mixed models: {sorted(m.value for m in models)}")


# -- equality with tolerance ---------------------------------------------------

def points_equal(p: Point, q: Point, tol: float = TOLERANCE) -> bool:
    """d(p, q) <= tol: equality by the metric, so isometries preserve it."""
    model = same_model(p, q)
    return KERNELS[model].dist(p.data, q.data) <= tol


def boundary_points_equal(b1: BoundaryPoint, b2: BoundaryPoint, tol: float = TOLERANCE) -> bool:
    model = same_model(b1, b2)
    return KERNELS[model].boundary_eq(b1.data, b2.data, tol)


def isometry_key(g: Isometry):
    """Hashable canonical key used for closure bookkeeping."""

    def r(x: float):
        v = round(x, ISOMETRY_KEY_DIGITS)
        return 0.0 if v == 0 else v

    return KERNELS[g.model].isometry_key(g.data, r)


# -- JSON: readers, and the writer of boundary points -------------------------
# An isometry payload, and a point or boundary object less its "model", are
# the keyword arguments of the kernel's constructor, so an unknown key is a
# TypeError.

def _from_fields(tagged, constructor: str, obj: dict):
    model = Model(obj["model"])
    fields = {key: value for key, value in obj.items() if key != "model"}
    return tagged(model, getattr(KERNELS[model], constructor)(**fields))


def point_from_json(obj: dict) -> Point:
    return _from_fields(Point, "point", obj)


def boundary_to_json(b: BoundaryPoint) -> dict:
    return {"model": b.model.value, **KERNELS[b.model].boundary_to_json(b.data)}


def boundary_from_json(obj: dict) -> BoundaryPoint:
    return _from_fields(BoundaryPoint, "boundary", obj)


def isometry_from_json(obj: dict) -> Isometry:
    model = Model(obj["model"])
    return Isometry(model, KERNELS[model].isometry(**obj["payload"]))
