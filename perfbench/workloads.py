"""Seeded inputs for the ``hot-classes`` gateway workload.

Everything the program under test receives is generated here from the
workload seed: the served scenario (60-service synthetic catalog with a
``decodes``-gated skip policy), the device classes, the Poisson arrival
schedule and the exact request bytes.  The catalog itself is drawn from
a fixed world seed, so the seed-to-seed spread of a metric measures the
serving path rather than the luck of one catalog draw; the seed varies
the traffic (which class sits at which Zipf rank, arrival times).
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.planner.batch import PlanRequest
from repro.planner.workload import device_variants
from repro.policy.document import PolicyDocument, PolicyRule
from repro.policy.predicates import Decodes
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

#: The catalog draw every gateway workload serves.
WORLD_SEED = 0
SCENARIO_SIZE = dict(n_services=60, n_formats=12, n_nodes=16)
#: Device classes in the hot mix, their Zipf exponent, and the spacing
#: of the ranks that decode the source natively (answered by the skip rule).
HOT_CLASSES = 64
HOT_ZIPF_S = 1.1
HOT_NATIVE_EVERY = 3
#: Every request asks for this deadline; the latency limit sits below it.
DEADLINE_MS = 250.0
CLIENT_ID = "perfbench"


def gateway_scenario() -> Scenario:
    """The served world: 60 services plus a skip rule on the source format."""
    scenario = generate_scenario(SyntheticConfig(seed=WORLD_SEED, **SCENARIO_SIZE))
    source = scenario.content.format_names()[0]
    scenario.policy = PolicyDocument(
        name="perfbench-skip-native",
        description="zero-hop answer for devices that decode the source",
        rules=(
            PolicyRule(
                rule_id="skip-native",
                action="skip",
                predicates=(Decodes(source),),
            ),
        ),
    )
    return scenario


def native(scenario: Scenario, device: DeviceProfile) -> DeviceProfile:
    """``device`` re-issued so it decodes the content's source format."""
    source = scenario.content.format_names()[0]
    device_id = f"{device.device_id}-native"
    return DeviceProfile(
        device_id=device_id,
        decoders=[source] + [d for d in device.decoders if d != source],
        max_resolution=device.max_resolution,
        max_color_depth=device.max_color_depth,
        max_frame_rate=device.max_frame_rate,
        max_audio_kbps=device.max_audio_kbps,
        cpu_mips=device.cpu_mips,
        memory_mb=device.memory_mb,
        vendor=device.vendor,
        model=f"{device_id}-model",
        attributes=device.attributes,
    )


def hot_classes(scenario: Scenario, seed: int) -> List[DeviceProfile]:
    """The 64 hot device classes in Zipf rank order.

    Every third rank decodes the source natively (a third of the classes,
    and a share of the traffic that does not depend on the seed); the
    seed shuffles which class sits at which rank.
    """
    rng = random.Random(f"{seed}:hot:classes")
    classes = device_variants(scenario.device, HOT_CLASSES)
    rng.shuffle(classes)
    return [
        native(scenario, device) if rank % HOT_NATIVE_EVERY == 0 else device
        for rank, device in enumerate(classes)
    ]


@dataclass(frozen=True)
class Request:
    """One generated request: its due offset, id, wire bytes and inputs."""

    due_s: float
    rid: str
    wire: bytes
    device: DeviceProfile

    def plan_request(self, scenario: Scenario) -> PlanRequest:
        """The planner input the gateway derives from this request."""
        return PlanRequest(
            content=scenario.content,
            device=self.device,
            user=scenario.user,
            sender_node=scenario.sender_node,
            receiver_node=scenario.receiver_node,
            context=scenario.context,
        )


def plan_wire(rid: str, device: DeviceProfile) -> bytes:
    """The exact HTTP/1.1 bytes of one ``POST /plan``."""
    payload: Dict = {
        "client": CLIENT_ID,
        "deadline_ms": DEADLINE_MS,
        "device": profile_to_dict(device),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    head = (
        f"POST /plan HTTP/1.1\r\nhost: perfbench\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
        f"x-request-id: {rid}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class HotTraffic:
    """Zipf-ranked draws from the 64 hot device classes."""

    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.seed = seed
        self.classes = hot_classes(scenario, seed)
        weights = [1.0 / (rank + 1) ** HOT_ZIPF_S
                   for rank in range(len(self.classes))]
        total = sum(weights)
        self._cumulative = list(
            itertools.accumulate(weight / total for weight in weights)
        )

    def warmup(self) -> List[Request]:
        """Untimed warm-up: every class once, filling the plan cache."""
        return [
            Request(0.0, f"warm-{i}", plan_wire(f"warm-{i}", device), device)
            for i, device in enumerate(self.classes)
        ]

    def rung(self, tag: str, rate: float, count: int) -> List[Request]:
        """``count`` Poisson arrivals at ``rate`` req/s, due offsets from 0.

        Each rung draws from its own seeded streams, so a rung's bytes do
        not depend on which rungs ran before it.
        """
        arrivals = random.Random(f"{self.seed}:hot-classes:{tag}:arrivals")
        draws = random.Random(f"{self.seed}:hot-classes:{tag}:draws")
        requests = []
        due = 0.0
        for i in range(count):
            due += arrivals.expovariate(rate)
            rank = bisect.bisect_left(self._cumulative, draws.random())
            device = self.classes[min(rank, len(self.classes) - 1)]
            rid = f"{tag}-{i}"
            requests.append(Request(due, rid, plan_wire(rid, device), device))
        return requests
