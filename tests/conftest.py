import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aoii_harq import ChannelModel, PenaltySpec, SourceModel
from aoii_harq.lagrangian import SigmaSeries, burst_chain


@pytest.fixture
def linear_penalty():
    return PenaltySpec.linear()


@pytest.fixture
def paper_source():
    """alpha = 0.5, mu = 1/30 (the N=16 source)."""
    return SourceModel.from_states(0.5, 16)


@pytest.fixture
def paper_channel():
    return ChannelModel(p_e=0.5, c=0.5, r_max=2)


@pytest.fixture
def near_perfect_channel():
    """p(r) ~= 1 to float precision; stands in for the perfect-decoding limit."""
    return ChannelModel(p_e=1e-13, c=0.5)


class PerfectChannel:
    """Duck-typed perfect decoder: q(r) = 1 - p(r) = 0 exactly (not
    constructible as a ChannelModel, whose error rate must stay positive)."""

    round_length = None

    def error_probability(self, r):
        return 0.0 * np.asarray(r, dtype=float)


class ZeroPenalty:
    """f == 0 stub for limit checks; not constructible as a PenaltySpec."""

    kind = "zero"

    def evaluate(self, delta):
        import numpy as np

        return np.zeros_like(np.asarray(delta, dtype=float))

    def __call__(self, delta):
        return 0.0


@pytest.fixture
def perfect_channel():
    return PerfectChannel()


@pytest.fixture
def zero_penalty():
    return ZeroPenalty()


@pytest.fixture
def sigma_steps(monkeypatch):
    """Counts SigmaSeries.step calls (list of one int) from a cleared chain cache."""
    count = [0]
    step = SigmaSeries.step

    def counted(self):
        count[0] += 1
        step(self)

    monkeypatch.setattr(SigmaSeries, "step", counted)
    burst_chain.cache_clear()
    return count
