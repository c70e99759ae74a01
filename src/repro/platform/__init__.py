"""Heterogeneous platform models: nodes, networks, clusters, scenarios.

This package is the hardware substrate of the reproduction: it describes
the Grid'5000 and Santos Dumont machines of the paper's Table II, the
interconnects, and the 16 evaluation scenarios of Figures 5/6.
"""

from .catalog import (
    B715,
    B715_GPU,
    B715_GPU1,
    CHETEMI,
    CHIFFLET,
    CHIFFLOT,
    TABLE_II,
    network_for_site,
    node_type,
    table2_rows,
)
from .cluster import Cluster, Group
from .network import NetworkModel
from .node import CATEGORIES, Node, NodeType
from .scenarios import FIGURE2_KEYS, SCENARIOS, Scenario, all_scenarios, get_scenario

__all__ = [
    "B715",
    "B715_GPU",
    "B715_GPU1",
    "CATEGORIES",
    "CHETEMI",
    "CHIFFLET",
    "CHIFFLOT",
    "Cluster",
    "FIGURE2_KEYS",
    "Group",
    "NetworkModel",
    "Node",
    "NodeType",
    "SCENARIOS",
    "Scenario",
    "TABLE_II",
    "all_scenarios",
    "get_scenario",
    "network_for_site",
    "node_type",
    "table2_rows",
]
