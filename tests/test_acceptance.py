"""Acceptance battery: one test per entry of ``cli.CRITERIA``, the registry that
``steercert reproduce`` runs, each printing a single pass/fail line."""

import pytest

from steercert import cli


@pytest.fixture(scope="module")
def battery():
    return cli.BatteryContext()


def _criterion_test(index, check):
    def test(capsys, battery):
        passed, detail = check(battery)
        with capsys.disabled():
            print(f"CRITERION {index}: {'PASS' if passed else 'FAIL'} - {detail}")
        assert passed, detail

    return test


# One named function per criterion rather than one parametrized test, so each
# criterion keeps its test id ``test_criterion_<n>_<snake_name>``.
for _index, (_name, _check) in enumerate(cli.CRITERIA, start=1):
    _snake = _name.replace("-", "_").replace(" ", "_")
    globals()[f"test_criterion_{_index}_{_snake}"] = _criterion_test(_index, _check)
