"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the program's own suite does not
collect it.
"""

from __future__ import annotations

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steercert import cli, sdp, steering  # noqa: E402
from steercert.assemblages import BWI, ScenarioShape  # noqa: E402


def test_closed_form_on_canonical_functional():
    value = workloads.closed_form_lhs_bound(steering.canonical_functional())
    assert value == pytest.approx(3.0 - np.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("m_a", [1, 2, 3, 4])
def test_closed_form_matches_sdp(m_a):
    rng = np.random.default_rng(m_a)
    for m_b, d in ((1, 2), (2, 2), (2, 3)):
        functional = workloads.random_functional(ScenarioShape(2, m_a, m_b, d, BWI), rng)
        sdp_value, _ = steering.lhs_bound(functional)
        assert workloads.closed_form_lhs_bound(functional) == pytest.approx(sdp_value, abs=1e-6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_input_digests(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = workloads.workload_digest(make(7, _dir(tmp_path, "a")))
    again = workloads.workload_digest(make(7, _dir(tmp_path, "b")))
    other = workloads.workload_digest(make(8, _dir(tmp_path, "c")))
    assert first == again
    assert first != other


def test_presentations_keep_values_and_change_inputs():
    shape = ScenarioShape(2, 4, 3, 3, BWI)
    functionals = [workloads.Draws(seed, 9).functional(shape) for seed in range(4)]
    values = [workloads.closed_form_lhs_bound(f) for f in functionals]
    assert values == pytest.approx([values[0]] * 4, rel=1e-12)
    assert not np.allclose(functionals[0].coeffs[(0, 0, 0)], functionals[1].coeffs[(0, 0, 0)])


def _dir(tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    return str(path)


def test_probe_restores_every_wrapped_attribute():
    solve = sdp.solve
    before = [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for owner, attr, _ in tracing.targets()
    ]
    with tracing.Probe(trace=True):
        assert sdp.solve is not solve
        assert cli.lhs_membership is not steering.lhs_membership
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} not restored"


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    ns = types.SimpleNamespace()
    ns.inner = lambda: None

    def outer():
        ns.inner()
        ns.inner()

    ns.outer = outer
    targets = [(ns, "outer", "x.outer"), (ns, "inner", "x.inner")]
    with tracing.Probe(trace=True, clock=lambda: next(ticks), target_list=targets) as probe:
        ns.outer()
    assert [s.name for s in probe.spans] == ["x.outer", "x.inner", "x.inner"]
    assert [s.parent for s in probe.spans] == [None, 0, 0]
    assert tracing.self_times(probe.spans) == [4.0, 2.0, 4.0]


def test_forced_non_convergence_counts_as_failed_not_wrong():
    items = [item for item in workloads.lhs_blocks(0, max_iter=3) if "6" in item.name]
    assert len(items) == 2  # the bound raises; the membership reports a status
    result = run.run_pass(items, trace=False)
    assert result.failed == len(items)
    assert result.checked == 0
    assert result.wrong == {}
