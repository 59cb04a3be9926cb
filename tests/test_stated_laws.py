"""The random model against the laws it states, by `scipy.stats` tests.

The oracle fuzz checks the runner against a scalar copy of the same
sampler, so a sampler that draws from the wrong law passes it. These tests
check the law itself. A `JitterModel` sample is

    base + mode2_offset_ns * B(mode2_prob) + B(spike_prob) * G

with G geometric on {1, 2, ...} of mean `spike_scale_ns` and the two
Bernoullis independent; a `with_probability` trigger fires at rate p.

Every test draws from fixed seeds, so its p-value is one fixed number; each
must stay above `LEVEL`. The file makes 10 such tests, so `LEVEL` is a 1%
family-wise level split over them (Bonferroni). A test that fails is a
program bug, not bad luck: fix the sampler, never the level or the seed.
"""

import numpy as np
import pytest
from scipy import stats as sps

from lockstepsim.eventsim import JitterModel, sample_turnaround_overheads
from lockstepsim.faults import WithProbability, trigger_fires
from lockstepsim.rng import derive_seed

LEVEL = 0.001
ROUNDS = 400_000
SEED = 20_210_805
# an offset above any spike, so each sample splits into its three parts
OFFSET = 10**12


def parts(model, name, first=0, n=ROUNDS):
    """(mode, spike, size) of each of n samples of `model` from rounds
    first .. first+n-1 of the streams `name` and `name`.size of `SEED`: the
    two Bernoullis as bool arrays and the spike sizes of the spiking rounds."""
    seeds = derive_seed(SEED, name), derive_seed(SEED, f"{name}.size")
    x = sample_turnaround_overheads(model, seeds, first, n) - model.base_overhead_ns
    mode = x >= OFFSET
    rest = x - OFFSET * mode
    return mode, rest > 0, rest[rest > 0]


MODELS = {
    "preset-host": JitterModel(base_overhead_ns=20_000, spike_prob=0.02, spike_scale_ns=400_000,
                               mode2_offset_ns=OFFSET, mode2_prob=0.3),
    "even": JitterModel(base_overhead_ns=7, spike_prob=0.5, spike_scale_ns=6,
                        mode2_offset_ns=OFFSET, mode2_prob=0.5),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mode_and_spike_shares_are_binomial(name):
    model = MODELS[name]
    mode, spike, _ = parts(model, f"host.{name}")
    assert sps.binomtest(int(mode.sum()), ROUNDS, model.mode2_prob).pvalue > LEVEL
    assert sps.binomtest(int(spike.sum()), ROUNDS, model.spike_prob).pvalue > LEVEL


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mode_and_spike_are_independent(name):
    mode, spike, _ = parts(MODELS[name], f"feed.{name}")
    table = [[int((mode & spike).sum()), int((mode & ~spike).sum())],
             [int((~mode & spike).sum()), int((~mode & ~spike).sum())]]
    assert sps.chi2_contingency(table).pvalue > LEVEL


def test_small_spike_sizes_are_geometric_by_chi_square():
    # mean 6: every size up to 25 expects more than 5 of the ~200k spikes
    model = MODELS["even"]
    *_, sizes = parts(model, "host.geom", first=10**9)
    law = sps.geom(1 / model.spike_scale_ns)
    top = 26
    observed = np.bincount(np.minimum(sizes, top), minlength=top + 1)[1:]
    expected = len(sizes) * np.append(law.pmf(np.arange(1, top)), law.sf(top - 1))
    assert sps.chisquare(observed, expected).pvalue > LEVEL


def test_large_spike_sizes_are_geometric_by_ks():
    # the preset's mean, 400 us: nearly every size is distinct
    model = JitterModel(spike_prob=1.0, spike_scale_ns=400_000)
    *_, sizes = parts(model, "host.ks", n=100_000)
    assert sps.kstest(sizes, sps.geom(1 / model.spike_scale_ns).cdf).pvalue > LEVEL


@pytest.mark.parametrize("p", [0.01, 0.4])
def test_with_probability_fires_at_rate_p(p):
    frames = np.arange(ROUNDS)
    fired = trigger_fires(WithProbability(p), frames, derive_seed(SEED, "fault.0"), 123_456)
    assert sps.binomtest(int(fired.sum()), ROUNDS, p).pvalue > LEVEL
