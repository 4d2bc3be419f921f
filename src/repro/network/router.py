"""The routing interface every matcher component programs against.

Both :class:`~repro.network.shortest_path.ShortestPathEngine` (online
Dijkstra over the CSR adjacency) and
:class:`~repro.network.ubodt.UbodtRouter` (precomputed table with Dijkstra
fallback) satisfy this protocol, so the trellis, the learned scorer, the
heuristic baselines, and path stitching can run on either — selected at the
CLI with ``--router {dijkstra,ubodt}``.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.network.shortest_path import Route, RouteBlock


@runtime_checkable
class Router(Protocol):
    """Segment-to-segment shortest-path routing."""

    def route(self, from_segment: int, to_segment: int) -> Route | None:
        """Shortest route between two segments (None when unreachable)."""
        ...

    def route_length(self, from_segment: int, to_segment: int) -> float:
        """Length of :meth:`route` in metres (inf when unreachable)."""
        ...


def route_pairs(
    router: Router, pairs: Sequence[tuple[int, int]]
) -> list[Route | None]:
    """Route every ``(from, to)`` pair, batched when the router supports it.

    Routers exposing ``route_many`` (both built-in engines do) answer all
    pairs from one vectorised multi-source query; anything else degrades to
    a per-pair loop, keeping third-party routers valid protocol members.
    """
    many = getattr(router, "route_many", None)
    if many is not None:
        return many(pairs)
    return [router.route(a, b) for a, b in pairs]


def route_block(router: Router, pairs: Sequence[tuple[int, int]]) -> RouteBlock:
    """Route every ``(from, to)`` pair into one columnar :class:`RouteBlock`.

    Routers with a native ``route_block`` (the Dijkstra engine) build it
    straight from their predecessor rows; any other router's
    :func:`route_pairs` answer is packed with :meth:`RouteBlock.from_routes`.
    """
    block = getattr(router, "route_block", None)
    if block is not None:
        return block(pairs)
    return RouteBlock.from_routes(route_pairs(router, pairs))
