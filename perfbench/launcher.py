"""Child-process entry point: the program under test, optionally traced.

    python perfbench/launcher.py serve [--spans-out F] -- <repro serve args>
    python perfbench/launcher.py sim --sessions N --seed S [--spans-out F]

``serve`` installs the span wrappers (when ``--spans-out`` is given) and
then hands over to ``repro.cli.main`` unchanged; at exit it writes the
per-layer summary to ``F``.

``sim`` builds the ``failover-storm`` campaign, times each session's
arrival handler, prints ``ready`` right before the first event and
``done`` when ``SimulationRun.execute`` returns, then one JSON result
line.  It then waits for a line on stdin, so the parent can read the
child's ``/proc`` figures before it exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _dump(tracer, path: str) -> None:
    if tracer is None or not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)


def _tracer(spans_out: str):
    if not spans_out:
        return None
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def serve(argv) -> int:
    parser = argparse.ArgumentParser(prog="launcher serve")
    parser.add_argument("--spans-out", default="")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = _tracer(args.spans_out)
    from repro.cli import main

    code = main(["serve"] + cli_args)
    _dump(tracer, args.spans_out)
    return code


#: The campaign's world is drawn from this seed; the workload seed varies
#: the session arrivals, durations and per-session draws.
SIM_WORLD_SEED = 0


def sim(argv) -> int:
    parser = argparse.ArgumentParser(prog="launcher sim")
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    tracer = _tracer(args.spans_out)
    from repro.sim import build_scenario
    from repro.sim.runner import SimulationRun
    from repro.sim.session import SimSession

    config = build_scenario("failover-storm", SIM_WORLD_SEED,
                            sessions=args.sessions)
    config.seed = args.seed
    # One session arrival (plan + reserve) is one request of this
    # workload: time each arrival handler (patched before the campaign
    # schedules its arrivals).
    arrival_ms = []
    real_arrival = SimSession.on_arrival

    def timed_arrival(session):
        started = time.perf_counter()
        try:
            return real_arrival(session)
        finally:
            arrival_ms.append((time.perf_counter() - started) * 1000.0)

    SimSession.on_arrival = timed_arrival
    run = SimulationRun(config)
    print("ready", flush=True)
    report = run.execute()
    print("done", flush=True)
    print(json.dumps({
        "events": report.events_processed,
        "digest": report.trace_digest,
        "arrival_ms": [round(v, 6) for v in arrival_ms],
    }), flush=True)
    sys.stdin.readline()
    _dump(tracer, args.spans_out)
    return 0


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in ("serve", "sim"):
        print("usage: launcher.py {serve,sim} ...", file=sys.stderr)
        return 2
    return {"serve": serve, "sim": sim}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
