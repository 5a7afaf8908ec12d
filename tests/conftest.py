"""Every test starts from an empty grounding memo, so a test that spies on
or patches the grounding code sees it run whatever ran before."""

import pytest

from ddgraphs import sampler


@pytest.fixture(autouse=True)
def cold_groundings():
    sampler._GROUNDINGS.clear()
    yield
