"""Explicit features for the learned probabilities (Eq. 8 and Eq. 12).

The observation features ``D_O`` are the normalised point–road Euclidean
distance and the historical co-occurrence frequency.  The transition
features ``D_T`` compare the moving path with the trajectory step: length
similarity and turn-count similarity (§IV-D, "Learned Transition
Probability").
"""

from __future__ import annotations

import numpy as np

from repro.cellular.trajectory import TrajectoryPoint
from repro.core.relation_graph import RelationGraph
from repro.geometry import heading_difference_deg
from repro.network.road_network import RoadNetwork
from repro.network.shortest_path import Route, RouteBlock

NUM_OBSERVATION_FEATURES = 4
NUM_BASE_OBSERVATION_FEATURES = 2  # without the pool-rank columns
NUM_TRANSITION_FEATURES = 3

_DISTANCE_SCALE_M = 1000.0


def observation_features(
    graph: RelationGraph, point: TrajectoryPoint, segment_id: int
) -> np.ndarray:
    """``D_O`` base features: (normalised distance, co-occurrence frequency).

    Prefer :func:`observation_feature_matrix`, which adds the pool-relative
    rank features; this single-segment form exists for inspection.
    """
    seg = graph.network.segments[segment_id]
    distance = seg.distance_to(point.position) / _DISTANCE_SCALE_M
    frequency = 0.0
    if point.tower_id is not None:
        frequency = graph.co_occurrence_frequency(point.tower_id, segment_id)
    return np.array([distance, frequency], dtype=np.float64)


def _normalised_ranks(values: np.ndarray, descending: bool = False) -> np.ndarray:
    """Rank of each value within its pool, scaled to ``[0, 1)``."""
    order = np.argsort(-values if descending else values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(len(values))
    return ranks / max(1, len(values))


def observation_feature_matrix(
    graph: RelationGraph,
    point: TrajectoryPoint,
    segment_ids: list[int],
    include_ranks: bool = True,
) -> np.ndarray:
    """``D_O`` for a whole candidate pool, shape ``(m, 4)`` (or ``(m, 2)``).

    Columns: normalised distance, co-occurrence frequency, and — unless
    ``include_ranks`` is disabled (a design-choice ablation) — distance rank
    within the pool and co-occurrence rank within the pool.  The rank
    columns realise the "batch-normalised" explicit features of Eq. 8 in a
    pool-size-independent way: absolute distances mean little under 0.1–3 km
    positioning error, but *relative* standing within the pool is stable.
    """
    distances = np.array(
        [graph.network.segments[s].distance_to(point.position) for s in segment_ids]
    )
    if point.tower_id is not None:
        frequencies = np.array(
            [graph.co_occurrence_frequency(point.tower_id, s) for s in segment_ids]
        )
    else:
        frequencies = np.zeros(len(segment_ids))
    columns = [distances / _DISTANCE_SCALE_M, frequencies]
    if include_ranks:
        columns.append(_normalised_ranks(distances))
        columns.append(_normalised_ranks(frequencies, descending=True))
    return np.column_stack(columns)


def stacked_observation_features(
    graph: RelationGraph,
    points: list[TrajectoryPoint],
    pools: list[list[int]],
    include_ranks: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """``D_O`` for every (point, candidate) pair of a trajectory at once.

    Returns ``(features, counts)`` where ``features`` stacks the per-point
    :func:`observation_feature_matrix` blocks row-wise (shape
    ``(sum(len(pool)), 4 or 2)``) and ``counts[i] = len(pools[i])`` gives the
    ragged layout.  Distances come from the network's vectorised
    exact-projection kernel and are bit-identical to per-pool scalar calls;
    the rank columns are computed per pool slice with the same stable
    argsort, so every row equals its scalar counterpart.
    """
    counts = np.fromiter((len(pool) for pool in pools), dtype=np.int64, count=len(pools))
    total = int(counts.sum())
    if total == 0:
        width = (
            NUM_OBSERVATION_FEATURES if include_ranks else NUM_BASE_OBSERVATION_FEATURES
        )
        return np.empty((0, width), dtype=np.float64), counts
    flat_ids: list[int] = []
    for pool in pools:
        flat_ids.extend(pool)
    xs = np.fromiter((p.position.x for p in points), dtype=np.float64, count=len(points))
    ys = np.fromiter((p.position.y for p in points), dtype=np.float64, count=len(points))
    px = np.repeat(xs, counts)
    py = np.repeat(ys, counts)
    distances = graph.network.point_segment_distances(px, py, flat_ids)
    frequencies = np.empty(total, dtype=np.float64)
    offset = 0
    for point, pool in zip(points, pools):
        m = len(pool)
        if point.tower_id is not None:
            frequencies[offset : offset + m] = graph.co_occurrence_frequencies(
                point.tower_id, pool
            )
        else:
            frequencies[offset : offset + m] = 0.0
        offset += m
    columns = [distances / _DISTANCE_SCALE_M, frequencies]
    if include_ranks:
        distance_ranks = np.empty(total, dtype=np.float64)
        frequency_ranks = np.empty(total, dtype=np.float64)
        offset = 0
        for count in counts:
            sl = slice(offset, offset + int(count))
            distance_ranks[sl] = _normalised_ranks(distances[sl])
            frequency_ranks[sl] = _normalised_ranks(frequencies[sl], descending=True)
            offset += int(count)
        columns.append(distance_ranks)
        columns.append(frequency_ranks)
    return np.column_stack(columns), counts


def route_turn_sum_deg(network: RoadNetwork, route: Route) -> float:
    """Total turning along a route: inter-segment plus in-segment angles."""
    total = 0.0
    segments = [network.segments[s] for s in route.segments]
    for seg in segments:
        total += seg.polyline.turn_angle_sum_deg()
    for earlier, later in zip(segments, segments[1:]):
        total += heading_difference_deg(earlier.heading_deg(), later.heading_deg())
    return total


def route_turn_sums(
    network: RoadNetwork, segment_ids: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:func:`route_turn_sum_deg` of many routes, bit for bit.

    Route ``r`` is ``segment_ids[starts[r] : starts[r] + counts[r]]``.
    Routes are ordered longest first, so the routes that still have a
    ``k``-th road are a prefix and each column is one slice add.  Each
    route's sum runs in exactly the scalar order (all in-segment turn sums
    first, then the heading differences) with elementwise adds, and the
    vectorised heading difference uses ``%`` and ``np.where``, which match
    Python's ``%`` and branch bit for bit on the non-negative operands
    involved.
    """
    turn_arr, heading_arr = network.turn_geometry_dense()
    order = np.argsort(-counts, kind="stable")
    first = starts[order]
    remaining = counts[order]
    acc = np.zeros(order.shape[0], dtype=np.float64)
    longest = int(remaining[0]) if order.shape[0] else 0
    # live[k]: how many routes have more than k roads (a prefix).
    live = np.searchsorted(-remaining, -np.arange(longest + 1), side="left")
    for k in range(longest):
        m = live[k]
        acc[:m] += turn_arr[segment_ids[first[:m] + k]]
    for k in range(longest - 1):
        m = live[k + 1]
        here = first[:m] + k
        diff = np.abs(
            heading_arr[segment_ids[here]] - heading_arr[segment_ids[here + 1]]
        ) % 360.0
        acc[:m] += np.where(diff > 180.0, 360.0 - diff, diff)
    out = np.empty_like(acc)
    out[order] = acc
    return out


def transition_features(
    network: RoadNetwork,
    route: Route,
    prev_point: TrajectoryPoint,
    point: TrajectoryPoint,
) -> np.ndarray:
    """``D_T``: (length gap, detour ratio, turning intensity).

    * length gap — ``|straight - routed| / (straight + 100)``: the paper's
      "similar length" heuristic in relative form;
    * detour ratio — routed over straight distance, clipped, which exposes
      loops the absolute gap alone can miss;
    * turning intensity — total route turning in half-circles, clipped,
      standing in for the "similar number of turns" comparison (a straight
      trajectory step should not map to a zig-zag path).
    """
    straight = prev_point.position.distance_to(point.position)
    denominator = straight + 100.0
    length_gap = abs(straight - route.length) / denominator
    detour_ratio = min(5.0, route.length / denominator)
    turning = min(3.0, route_turn_sum_deg(network, route) / 180.0)
    return np.array([length_gap, detour_ratio, turning], dtype=np.float64)


def transition_feature_rows(
    network: RoadNetwork,
    routes: RouteBlock,
    straight: float | np.ndarray,
    relevance: np.ndarray | None = None,
    relevance_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked transition rows for every found route of ``routes``.

    ``routes`` holds one trellis step's routes or any number of steps';
    ``straight`` is the straight-line distance of the step, one float for
    all entries or an array aligned with them.

    Returns ``(rows, positions)``: ``rows[r]`` is the feature row for
    block entry ``positions[r]`` (missing routes are skipped, order
    preserved).  Without ``relevance`` the rows are the 3 explicit ``D_T``
    columns, bit-identical to per-route :func:`transition_features`.  With
    it, a leading implicit column carries the mean learned relevance over
    the route's segments, matching the scalar
    ``float(np.mean([rel[s] for s in route.segments]))`` (same-length
    routes are grouped so ``np.mean(axis=1)`` reproduces the per-route
    reduction exactly).  ``relevance`` is indexed by segment id, or, when
    ``relevance_ids`` (sorted segment ids) is given, aligned with those
    ids, which must then include every road of every route.
    """
    positions = np.flatnonzero(routes.found)
    starts = routes.offsets[positions]
    counts = routes.offsets[positions + 1] - starts
    n = len(positions)
    width = NUM_TRANSITION_FEATURES + (1 if relevance is not None else 0)
    if n == 0:
        return np.empty((0, width), dtype=np.float64), positions
    lengths = routes.lengths[positions]
    turns = route_turn_sums(network, routes.segment_ids, starts, counts)
    if isinstance(straight, np.ndarray):
        straight = straight[positions]
    denominator = straight + 100.0
    length_gap = np.abs(straight - lengths) / denominator
    detour_ratio = np.minimum(5.0, lengths / denominator)
    turning = np.minimum(3.0, turns / 180.0)
    explicit = np.column_stack([length_gap, detour_ratio, turning])
    if relevance is None:
        return explicit, positions
    implicit = np.empty(n, dtype=np.float64)
    # Routes come grouped by segment count: np.mean over the rows of a
    # same-length stack is bitwise identical to the scalar per-route np.mean.
    for members, ids in _block_length_groups(routes.segment_ids, starts, counts):
        if ids.shape[1] == 0:
            implicit[members] = 0.5
            continue
        if relevance_ids is not None:
            ids = np.searchsorted(relevance_ids, ids)
        implicit[members] = np.mean(relevance[ids], axis=1)
    return np.column_stack([implicit, explicit]), positions


def _block_length_groups(segment_ids: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """``(members, segment-id matrix)`` per segment count of the block routes."""
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_counts)) + 1).tolist(), len(order)]
    for lo, hi in zip(bounds, bounds[1:]):
        members = order[lo:hi]
        ids = segment_ids[starts[members, None] + np.arange(sorted_counts[lo])]
        yield members, ids
