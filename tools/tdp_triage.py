#!/usr/bin/env python3
"""Render an incident-engine flight-recorder dump for triage.

Reads the JSON that examples/tdp_inspect prints for a "TDPI" dump. The
dump bytes are decoded only by obs::incident::decode_dump, which
tdp_inspect calls; this script never reads the binary format itself.

Usage:
  tdp_inspect DUMP | tdp_triage.py - [--journal-jsonl FILE]
  tdp_triage.py DUMP.json [--journal-jsonl FILE]

Prints a human-readable triage report: dump position, detector posture,
open/closed incidents with their attribution snapshot (storm regimes,
health-FSM state, last re-anchor decision), the alert stream, and the
flight-recorder timeline. With --journal-jsonl, incident.* journal events
are folded into the timeline. Exits non-zero on unreadable JSON. Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import sys

DAY_SCOPED_PERIOD = 0xFFFFFFFF


def fail(message: str) -> None:
    print(f"tdp_triage: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_dump(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")


def recorder_timeline(state: dict) -> list:
    """Chronological recorder entries (the dump stores the unwound ring)."""
    entries = state["recorder"]
    if state["recorder_overwritten"] > 0:
        pos = state["recorder_pos"]
        entries = entries[pos:] + entries[:pos]
    return entries


def load_incident_journal(path: str) -> list:
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if str(event.get("kind", "")).startswith("incident."):
                    events.append(event)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")
    return events


def describe_recorder(entry: dict) -> str:
    kind, a, b = entry["kind"], entry["a"], entry["b"]
    if kind == "disturbance":
        what = "gap" if a >= 1.0 else "repair"
        return f"measurement {what} (lost stripes {int(b)})"
    if kind == "channel_degraded":
        return f"channel degraded: {int(a)} drops, {int(b)} degraded groups"
    if kind == "solver_starved":
        return "solver starved"
    if kind == "health_edge":
        return f"health {entry['a_name']} -> {entry['b_name']}"
    if kind == "alert":
        return f"alert {entry['a_name']} value={b:g}"
    if kind == "incident_open":
        return f"incident #{int(a)} OPEN ({entry['b_name']})"
    if kind == "incident_close":
        return f"incident #{int(a)} CLOSE after {int(b)} periods"
    if kind == "settle":
        held = " (books held)" if b < 0 else f" pool={b:g}"
        return f"settle: spent={a:g}{held}"
    if kind == "day_end":
        return f"day end: p2a reduction={a:g}, fallback periods={int(b)}"
    if kind == "reanchor":
        return f"reanchor {entry['a_name']} (day {int(b)})"
    return kind


def attribution(entry: dict) -> str:
    storms = [name for name, key in (("blackout", "storm_blackout"),
                                     ("channel", "storm_channel"),
                                     ("solver", "storm_solver"))
              if entry[key]]
    storm_text = "+".join(storms) if storms else "none"
    reanchor = entry["last_reanchor"]
    if reanchor != "none":
        reanchor += f"@day{entry['last_reanchor_day']}"
    return (f"storms={storm_text} health={entry['health']} "
            f"reanchor={reanchor}")


def render(dump: dict, journal_events: list) -> None:
    state = dump["state"]
    config = dump["config"]
    print(f"== TDP incident dump: day {dump['day']}, period "
          f"{dump['period']} ==")
    print(f"observed through abs period {state['last_abs_period']} "
          f"(day {state['last_day']}, period {state['last_period']}); "
          f"{state['days_seen']} days, {state['settles_seen']} settles")
    print(f"current attribution: {attribution(state)}")

    print("\n-- detector posture --")
    for name in ("cusum_measurement", "cusum_channel", "cusum_solver"):
        d = state[name]
        threshold = (config["channel_cusum_h"] if name == "cusum_channel"
                     else config["cusum_h"])
        print(f"  {name}: S={d['s']:g}/{threshold:g} "
              f"({d['samples']} samples, {d['firings']} firings)")
    for name in ("ewma_p2a", "ewma_peak"):
        d = state[name]
        print(f"  {name}: mean={d['mean']:g} var={d['variance']:g} "
              f"({d['samples']} days)")
    bad = sum(state["slo_window"])
    print(f"  slo window: {bad}/{len(state['slo_window'])} bad "
          f"(filled {state['slo_filled']})")

    open_count = sum(1 for i in state["incidents"] if not i["closed"])
    print(f"\n-- incidents: {len(state['incidents'])} total, "
          f"{open_count} open --")
    for incident in state["incidents"]:
        status = ("OPEN" if not incident["closed"]
                  else f"closed@{incident['close_abs_period']}")
        print(f"  #{incident['id']} {incident['objective']} "
              f"{incident['severity']} open@{incident['open_abs_period']} "
              f"{status} burn={incident['burn_short']:g}/"
              f"{incident['burn_long']:g}")
        print(f"      {attribution(incident)}")

    dropped = state["alerts_dropped"]
    suffix = f" ({dropped} dropped past the cap)" if dropped else ""
    print(f"\n-- alerts: {len(state['alerts'])} retained{suffix} --")
    for alert in state["alerts"]:
        where = ("day-scoped" if alert["period"] == DAY_SCOPED_PERIOD
                 else f"p{alert['period']}")
        print(f"  [{alert['seq']}] t={alert['abs_period']} "
              f"(day {alert['day']} {where}) {alert['kind']} "
              f"value={alert['value']:g} threshold={alert['threshold']:g}")

    timeline = recorder_timeline(state)
    overwritten = state["recorder_overwritten"]
    suffix = f" ({overwritten} older entries overwritten)" if overwritten \
        else ""
    print(f"\n-- flight recorder: {len(timeline)} moments{suffix} --")
    for entry in timeline:
        print(f"  t={entry['abs_period']}: {describe_recorder(entry)}")

    if journal_events:
        print(f"\n-- journal cross-reference: {len(journal_events)} "
              f"incident.* events --")
        for event in journal_events:
            fields = event.get("fields", {})
            detail = event.get("detail", "")
            extras = " ".join(f"{k}={v:g}" for k, v in sorted(fields.items()))
            print(f"  [{event.get('seq')}] {event.get('kind')} "
                  f"{detail} {extras}".rstrip())

    if dump.get("has_wall") and "wall" in dump:
        wall = dump["wall"]
        print(f"\n-- wall-clock extras (advisory only) --")
        for name, value in wall["counters"]:
            print(f"  {name}: {value} ns")
        latencies = wall["commit_latencies"]
        if latencies:
            worst = max(latencies)
            print(f"  checkpoint commits: {len(latencies)} "
                  f"(worst {worst * 1e3:.3f} ms)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dump",
                        help="tdp_inspect JSON of a TDPI dump, or - for "
                             "stdin")
    parser.add_argument("--journal-jsonl",
                        help="journal JSONL to cross-reference incident.* "
                             "events")
    args = parser.parse_args()

    dump = load_dump(args.dump)
    journal_events = (load_incident_journal(args.journal_jsonl)
                      if args.journal_jsonl else [])
    render(dump, journal_events)


if __name__ == "__main__":
    main()
