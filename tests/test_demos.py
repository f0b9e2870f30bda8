"""Each demo script runs to completion against the library in src/."""

import pytest

from util import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    res = run_python(str(demo))
    assert res.returncode == 0, res.stderr[-2000:]
