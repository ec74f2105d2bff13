"""The kernel table: one module per model, all with the same names."""

import numpy as np
import pytest

from cat0lab import Model
from cat0lab.models import KERNELS

TABLE = (
    # values and codecs
    "BASEPOINT", "IDENTITY", "point", "boundary", "isometry", "points_equal",
    "boundary_eq", "isometry_key", "point_from_json", "boundary_to_json",
    "boundary_from_json", "isometry_to_json", "isometry_from_json",
    # geometry
    "dist", "geodesic_point", "ray_point", "direction", "horofunction",
    "busemann_limit",
    # the group and axes
    "apply", "apply_boundary", "compose", "inverse", "classify", "axis_endpoints",
    "axis_position", "RANK_ONE",
    # boundary
    "tits", "boundary_metric", "geodesic_witness", "TITS_BALL_TRIVIAL",
    "VERTEX_GRANULAR",
    # samplers and bins
    "random_point", "random_isometry", "random_axial", "random_boundary",
    "ball_point", "default_bins",
    # walks
    "Walker", "snapshot_point", "snapshot_horofunction", "snapshot_boundary",
    "CSV_COLUMNS", "csv_row", "tracking_gaps",
)


def test_every_model_has_a_kernel():
    assert set(KERNELS) == set(Model)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_kernel_exposes_the_whole_table(model):
    missing = [name for name in TABLE if not hasattr(KERNELS[model], name)]
    assert missing == []


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_walker_snapshot_point_matches_dist_to_base(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(5)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    walker = kernel.Walker(atoms, kernel.BASEPOINT)
    for i in (0, 1, 2, 2, 0, 1):
        walker.step(i)
    p = kernel.snapshot_point(walker.snapshot(), kernel.BASEPOINT)
    assert float(kernel.dist(kernel.BASEPOINT, p)) == pytest.approx(walker.dist_to_base(),
                                                                    rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_snapshot_boundary_is_the_image_under_the_atom_product(model):
    kernel = KERNELS[model]
    rng = np.random.default_rng(11)
    atoms = [kernel.random_isometry(rng) for _ in range(3)]
    walker = kernel.Walker(atoms, kernel.BASEPOINT)
    product = kernel.IDENTITY
    for i in (0, 1, 2, 2, 0, 1):
        walker.step(i)
        product = kernel.compose(product, atoms[i])
    for _ in range(5):
        b = kernel.random_boundary(rng, 1e-9)
        image = kernel.snapshot_boundary(walker.snapshot(), kernel.BASEPOINT, b)
        assert kernel.boundary_eq(image, kernel.apply_boundary(product, b), 1e-9)
