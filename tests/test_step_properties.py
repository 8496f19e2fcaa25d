"""Property tests of one critical-age step on random critical measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agefire as af
from agefire.evolution import _critical_state
from agefire.validation import random_probability_measure


def _critical_draw(seed):
    """A random probability measure moved onto the critical manifold."""
    m = random_probability_measure(np.random.default_rng(seed))
    lam = af.leading_eigenvalue(m)
    if lam >= 1.0:  # the eigenvalue is linear in the ages
        m = af.ProbabilityAgeMeasure(m.locations * (0.5 / lam), m.masses)
    return af.recriticalize(m)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 1e-2),
       budget=st.sampled_from([1e-3, 1e-5, 1e-6]))
def test_step_invariants_on_random_critical_measures(seed, dt, budget):
    # one step drifts by at most ~3e-5 here, so the default budget 1e-3
    # holds and the tighter ones exercise the AccuracyError audit
    state = _critical_state(0.0, _critical_draw(seed))
    free = af.step(state, dt, lambda_drift_budget=math.inf)
    assert free.mass_defect <= 1e-12
    assert (np.diff(free.pi.locations) > 0).all()
    if free.lambda_drift <= budget:
        audited = af.step(state, dt, lambda_drift_budget=budget)
        assert audited.lam == free.lam
    else:
        with pytest.raises(af.AccuracyError):
            af.step(state, dt, lambda_drift_budget=budget)
