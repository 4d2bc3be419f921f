"""Road-network substrate: graph model, synthetic generators, routing."""

from repro.network.road_network import CsrAdjacency, RoadNetwork, RoadSegment
from repro.network.generators import CityConfig, generate_city_network
from repro.network.shortest_path import Route, RouteBlock, ShortestPathEngine
from repro.network.router import Router, route_block, route_pairs
from repro.network.io import network_from_dict, network_to_dict, load_network, save_network
from repro.network.ubodt import Ubodt, UbodtRouter

__all__ = [
    "RoadNetwork",
    "RoadSegment",
    "CsrAdjacency",
    "CityConfig",
    "generate_city_network",
    "Route",
    "RouteBlock",
    "Router",
    "route_block",
    "route_pairs",
    "ShortestPathEngine",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "save_network",
    "Ubodt",
    "UbodtRouter",
]
