"""Certification toolkit for steering assemblages with inputs on the trusted side.

The package builds and checks assemblages for scenarios where the trusted
party also receives an input (input/output boxes on one wing, a quantum state
on the other), decides membership in the no-signalling, local-hidden-state,
and moment-matrix-relaxation sets with an in-house semidefinite solver, and
extracts quantum realizations or post-quantum certificates.
"""

# ``cli`` is not imported here: ``python -m steercert.cli`` would otherwise find
# the module already loaded and warn.  ``from steercert import cli`` loads it.
from steercert import assemblages, ghjw, matcore, ptp, sdp, serialize, steering

__all__ = [
    "assemblages",
    "cli",
    "ghjw",
    "matcore",
    "ptp",
    "sdp",
    "serialize",
    "steering",
]

__version__ = "0.1.0"
