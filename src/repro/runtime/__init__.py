"""StarPU-like task-based runtime: STF graphs + discrete-event simulation.

This package is the runtime substrate: tasks and data handles mirror the
StarPU programming model described in Section II of the paper, and
:class:`FastSimulator` plays the role StarPU-SimGrid plays in the paper's
methodology (Section V).  The reference :class:`Simulator` is its
bit-identical oracle and is built only by tests and the benchmark.
"""

from .dag import TaskGraph, chain
from .data import DataHandle, DataRegistry
from .perfmodel import CPU, DEFAULT_EFFICIENCY, GPU, PerfModel
from .simfast import FastSimulator, GraphPlan, compile_plan
from .simulator import SimulationResult, Simulator, TaskRecord, TransferRecord
from .task import Placement, Task
from .trace import (
    UtilizationTimeline,
    render_ascii,
    utilization_timeline,
)

__all__ = [
    "CPU",
    "DEFAULT_EFFICIENCY",
    "DataHandle",
    "DataRegistry",
    "FastSimulator",
    "GPU",
    "GraphPlan",
    "Placement",
    "PerfModel",
    "SimulationResult",
    "Simulator",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "TransferRecord",
    "UtilizationTimeline",
    "chain",
    "compile_plan",
    "render_ascii",
    "utilization_timeline",
]
