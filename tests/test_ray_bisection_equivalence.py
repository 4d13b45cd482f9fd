"""The allocation-free quality-ray bisection equals the per-step reference.

Hypothesis draws parameter sets mixing continuous and discrete domains
(integer and float bounds), satisfaction functions over a random subset of
the parameters (the rest are free), media formats of every type, and
upstream configurations, caps and bandwidths around the point where
Equation 2 starts to bind.  Both the bisection itself and the whole
``optimize()`` answer must match :mod:`tests.reference_optimizer` bit for
bit (compared by ``repr`` too, so int/float drift would show).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.configuration import Configuration
from repro.core.optimizer import ConfigurationOptimizer, OptimizationConstraints
from repro.core.parameters import (
    AUDIO_QUALITY,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import (
    CombinedSatisfaction,
    HarmonicCombiner,
    LinearSatisfaction,
)
from repro.formats.format import MediaFormat, MediaType

from tests.reference_optimizer import ReferenceRayOptimizer

NAMES = [FRAME_RATE, RESOLUTION, COLOR_DEPTH, AUDIO_QUALITY]
numbers = st.one_of(
    st.integers(min_value=0, max_value=2000),
    st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
)


@st.composite
def domains(draw):
    if draw(st.booleans()):
        low = draw(numbers)
        high = low + draw(numbers)
        return ContinuousDomain(low, high)
    values = draw(st.lists(numbers, min_size=1, max_size=5, unique=True))
    return DiscreteDomain(sorted(float(v) for v in values))


@st.composite
def problems(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    parameters = ParameterSet(
        [Parameter(name, "u", draw(domains())) for name in names]
    )
    liked = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    functions = {}
    for name in liked:
        minimum = draw(st.floats(min_value=0.0, max_value=100.0))
        functions[name] = LinearSatisfaction(
            minimum, minimum + draw(st.floats(min_value=1.0, max_value=2000.0))
        )
    satisfaction = CombinedSatisfaction(functions=functions, combiner=HarmonicCombiner())
    degrade_order = draw(st.permutations(names))
    fmt = MediaFormat(
        name="f",
        media_type=draw(st.sampled_from(list(MediaType))),
        compression_ratio=draw(st.floats(min_value=1.0, max_value=50.0)),
    )
    upstream = Configuration(
        {
            name: parameters[name].domain.maximum * draw(st.floats(0.2, 1.5))
            for name in names
        }
    )
    caps = {
        name: draw(numbers) for name in names if draw(st.integers(0, 3)) == 0
    }
    full = Configuration(
        {name: parameters[name].domain.maximum for name in names}
    ).required_bandwidth(fmt)
    bandwidth = full * draw(st.floats(min_value=0.0, max_value=1.2))
    return parameters, satisfaction, degrade_order, fmt, upstream, caps, bandwidth


def _pair(parameters, satisfaction, degrade_order):
    return (
        ConfigurationOptimizer(parameters, satisfaction, degrade_order),
        ReferenceRayOptimizer(parameters, satisfaction, degrade_order),
    )


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_ray_bisection_matches_reference(problem):
    parameters, satisfaction, order, fmt, upstream, caps, bandwidth = problem
    production, reference = _pair(parameters, satisfaction, order)
    constraints = OptimizationConstraints(upstream, caps, fmt, bandwidth)
    upper = production._upper_bounds(constraints)
    if upper is None:
        return
    lower = production._lower_bounds(upper)
    start = production._reduce_free_parameters(upper, lower, fmt, bandwidth)
    ours = production._ray_bisection(start, lower, fmt, bandwidth)
    theirs = reference._ray_bisection(start, lower, fmt, bandwidth)
    assert ours == theirs
    assert repr(sorted(ours.items())) == repr(sorted(theirs.items()))


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_optimize_matches_reference(problem):
    parameters, satisfaction, order, fmt, upstream, caps, bandwidth = problem
    production, reference = _pair(parameters, satisfaction, order)
    constraints = OptimizationConstraints(upstream, caps, fmt, bandwidth)
    ours = production.optimize(constraints)
    theirs = reference.optimize(constraints)
    assert ours == theirs
    if ours is not None:
        assert repr(sorted(ours.configuration.items())) == repr(
            sorted(theirs.configuration.items())
        )
        assert repr(ours.satisfaction) == repr(theirs.satisfaction)
