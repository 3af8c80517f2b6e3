"""One pass of each benchmark workload, counted as the benchmark counts it.

The benchmark in ``perfbench/`` counts an item as failed when it raises or
when any solve it makes ends with a status other than ``optimal``, and as
wrong when its output fails the workload's own check.  Neither shows in the
other tests, so one pass per workload runs here, with the benchmark's own
pass loop and inputs.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 4099

# Seed 25 presents the ladder's (3,3,2) functional in a way whose solve once
# ended numerical_trouble; that item is also in tests/data.
PASSES = [pytest.param(name, SEED, id=name) for name in bench.WORKLOAD_NAMES] + [
    pytest.param("qtilde-ladder", 25, id="qtilde-ladder-seed25")
]


@pytest.mark.parametrize("name, seed", PASSES)
def test_one_pass_has_no_failed_or_wrong_item(name, seed, tmp_path):
    items = workloads.WORKLOADS[name](seed, str(tmp_path))
    result = bench.run_pass(items, trace=False)
    assert result.failed == 0
    assert result.wrong == {}
    assert result.checked == len(items)


def _attribute(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_traced_name_exists_and_is_restored():
    # The traced pass wraps these names by attribute; one that a change drops
    # or renames breaks ``run.py --trace 1`` though every other test passes.
    before = [(owner, attr, _attribute(owner, attr)) for owner, attr, _ in tracing.targets()]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, fn in before if fn is None]
    assert missing == []
    with tracing.Probe(trace=True):
        wrapped = [attr for owner, attr, fn in before if _attribute(owner, attr) is fn]
    assert wrapped == []
    for owner, attr, original in before:
        assert _attribute(owner, attr) is original, f"{owner}.{attr} not restored"
