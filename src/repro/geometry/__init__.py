"""Planar geometry primitives used throughout the library.

All coordinates live in a local metric frame (east/north metres relative to
the city origin).  Working in metres rather than raw latitude/longitude keeps
distance, projection, and bearing computations exact and fast; the synthetic
city generators emit coordinates directly in this frame.
"""

from repro.geometry.point import Point, bearing_deg, euclidean, heading_difference_deg
from repro.geometry.segment import (
    Polyline,
    point_to_polyline_distance,
    point_to_segment_distance,
    project_point_to_segment,
)
from repro.geometry.cell_index import CellIndex
from repro.geometry.grid_index import GridIndex

__all__ = [
    "Point",
    "Polyline",
    "CellIndex",
    "GridIndex",
    "bearing_deg",
    "euclidean",
    "heading_difference_deg",
    "point_to_polyline_distance",
    "point_to_segment_distance",
    "project_point_to_segment",
]
