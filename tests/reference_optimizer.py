"""The quality-ray bisection that allocated a Configuration per step, kept as
the equivalence oracle.

:meth:`ConfigurationOptimizer._ray_bisection` runs its 60 steps on one
plain dict of floats.  Before that it built a fresh :class:`Configuration`
for every probed ray position through the ``at()`` helper preserved here;
``tests/test_ray_bisection_equivalence.py`` asserts both give bit-identical
answers.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.configuration import Configuration
from repro.core.optimizer import _BISECTION_STEPS, _FIT_SLACK, ConfigurationOptimizer
from repro.formats.format import MediaFormat

__all__ = ["ReferenceRayOptimizer"]


class ReferenceRayOptimizer(ConfigurationOptimizer):
    """The optimizer with the per-step-allocating ray bisection."""

    def _ray_bisection(
        self,
        start: Configuration,
        lower: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        preference = set(self._satisfaction.parameter_names())
        moving = [n for n in start if n in preference]

        def at(t: float) -> Configuration:
            values = start.as_dict()
            for name in moving:
                raw = lower[name] + t * (start[name] - lower[name])
                snapped = self._parameters[name].clamp_down(raw)
                values[name] = lower[name] if snapped is None else snapped
            return Configuration(values)

        low_t, high_t = 0.0, 1.0
        if at(0.0).required_bandwidth(fmt) > bandwidth * _FIT_SLACK:
            values = start.as_dict()
            for name in start:
                if name not in preference:
                    values[name] = lower[name]
            start = Configuration(values)
            if at(0.0).required_bandwidth(fmt) > bandwidth * _FIT_SLACK:
                return at(0.0)
        for _ in range(_BISECTION_STEPS):
            mid = (low_t + high_t) / 2.0
            if at(mid).fits_bandwidth(fmt, bandwidth):
                low_t = mid
            else:
                high_t = mid
        return at(low_t)
