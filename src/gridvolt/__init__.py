"""gridvolt: generator set-point voltage control for transmission grids.

Load a case, knock a bus voltage out of its band with a reactive
disturbance, and steer it back with minimal set-point effort:

    from gridvolt import caseio, controller, netmodel

    net = caseio.parse_case(
        caseio.CaseSource.from_path(caseio.bundled_case_path("case9")))
    net = netmodel.apply_disturbance(net, bus=9, dq=70.0)
    trace = controller.ovc_run(net)
    print(trace.outcome, len(trace.iterations))
"""

import importlib

from . import caseio, controller, netmodel, numerics, powerflow, sensitivity

__version__ = "0.1.0"

__all__ = [
    "caseio",
    "controller",
    "netmodel",
    "numerics",
    "powerflow",
    "sensitivity",
    "__version__",
]


def __getattr__(name):
    # ``cli`` is imported on first use, not with the package, so that
    # ``python -m gridvolt.cli`` runs a module that is not yet imported.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
