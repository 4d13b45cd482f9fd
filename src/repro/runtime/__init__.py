"""Runtime: end-to-end adaptation sessions over the simulated substrate.

The paper's framework ends where the selected chain starts streaming; this
package closes the loop so examples and benches can observe actual
delivery:

- :class:`~repro.runtime.session.AdaptationSession` — wires profiles →
  graph construction → pruning → selection into one call and hands back a
  plan;
- :class:`~repro.runtime.pipeline.DeliveryPipeline` — streams the selected
  chain over the topology (per-hop transmission and processing latency,
  bandwidth fluctuation, loss), producing a
  :class:`~repro.runtime.metrics.DeliveryReport`;
- :class:`~repro.runtime.events.EventLog` — ordered, timestamped record of
  what happened, for debugging and assertions.

Many sessions sharing one infrastructure — admission against reserved
bandwidth, mid-session re-planning under faults — live in
:mod:`repro.sim`, which builds on these pieces.
"""

from repro.runtime.events import Event, EventLog
from repro.runtime.metrics import DeliveryReport
from repro.runtime.pipeline import DeliveryPipeline
from repro.runtime.session import AdaptationSession, SessionPlan

__all__ = [
    "Event",
    "EventLog",
    "DeliveryReport",
    "DeliveryPipeline",
    "AdaptationSession",
    "SessionPlan",
]
