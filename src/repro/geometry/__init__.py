"""Planar geometry substrate.

Everything the schedulers need from 2-D Euclidean geometry:

- :mod:`repro.geometry.points` — point-array helpers and constructors,
- :mod:`repro.geometry.distance` — vectorised distance kernels,
- :mod:`repro.geometry.region` — axis-aligned rectangular regions,
- :mod:`repro.geometry.grid` — the square partition + 4-colouring used
  by LDP (Fig. 2a of the paper) and the ring enumeration used in the
  feasibility proofs (Fig. 2b).
"""

from repro.geometry.distance import (
    coordinate_distances,
    cross_distances,
    pairwise_distances,
    point_to_points,
)
from repro.geometry.grid import GridPartition, four_coloring, ring_cells
from repro.geometry.points import as_points, bounding_box, translate
from repro.geometry.region import Region

__all__ = [
    "as_points",
    "bounding_box",
    "translate",
    "coordinate_distances",
    "cross_distances",
    "pairwise_distances",
    "point_to_points",
    "Region",
    "GridPartition",
    "four_coloring",
    "ring_cells",
]
