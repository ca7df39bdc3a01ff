#!/usr/bin/env python3
"""Render riptide decision-audit traces (JSONL from --trace / TraceSink).

A trace file is one meta line followed by one JSON object per event:

    {"kind":"trace-meta","emitted":N,"dropped":N}
    {"at":<ns>,"seq":<n>,"kind":"tcp-cwnd",...}

Modes (stdlib only, no third-party dependencies):

    trace_report.py FILE                 summary: counts, connections, routes
    trace_report.py FILE --check         validate schema/ordering; exit 0/1
    trace_report.py FILE --list          list traced connections and routes
    trace_report.py FILE --conn CONN     cwnd-vs-time table + ASCII plot for
                                         one connection ("a:p-b:p", or a
                                         unique substring of it)
    trace_report.py FILE --route PREFIX  per-route decision timeline
                                         (--host narrows to one agent)
    trace_report.py FILE --governor      SafetyGovernor state timeline per
                                         agent (--host narrows to one)

The --conn view is the Fig-6-style picture: an initcwnd-seeded connection
starts its timeline at the jump-started window instead of IW10.
"""

import argparse
import json
import os
import sys

# Keys every event of a kind must carry (beyond at/seq/kind).
REQUIRED_KEYS = {
    "tcp-state": {"conn", "from", "to"},
    "tcp-cwnd": {"conn", "cause", "cwnd", "ssthresh", "mss"},
    # (tcp-cwnd "cause" must additionally be one of TCP_CWND_CAUSES.)
    "tcp-rto": {"conn", "rto_ns", "retries"},
    "agent-decision": {
        "host", "route", "samples", "combined", "folded", "final",
        "trend_reset", "capped",
    },
    "agent-program": {"host", "route", "verdict", "scale", "initcwnd",
                      "initrwnd"},
    "agent-route": {"host", "route", "cause", "window"},
    "agent-restore": {"host", "source", "reinstalled", "records",
                      "generation"},
    "agent-rollback": {"host", "routes"},
    "governor-state": {"host", "from", "to", "cause", "retrans_fraction",
                       "routes"},
    "fault": {"fault", "restored", "value", "duration_ns"},
    "link": {"link", "up"},
}

# Closed vocabulary for tcp-cwnd "cause" (src/trace/sink.cc to_string):
# the classic loss-based transitions plus the CC-zoo regimes — HyStart's
# slow-start exit, BBR-lite's probe-RTT dip, and pacer-deferred sends.
TCP_CWND_CAUSES = {
    "initcwnd-seeded", "slowstart", "ca", "fast-retransmit",
    "recovery-exit", "rto", "idle-restart",
    "hystart-exit", "bbr-probe-rtt", "paced",
}


def load(path):
    """Returns (meta, events) or raises ValueError with a line number."""
    meta = None
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {lineno}: bad JSON: {err}") from err
            if lineno == 1:
                if obj.get("kind") != "trace-meta":
                    raise ValueError("line 1: expected trace-meta header")
                meta = obj
                continue
            events.append((lineno, obj))
    if meta is None:
        raise ValueError("empty trace file")
    return meta, events


def check(meta, events):
    """Schema + ordering validation; returns a list of error strings."""
    errors = []
    for field in ("emitted", "dropped"):
        if not isinstance(meta.get(field), int):
            errors.append(f"trace-meta: missing integer '{field}'")
    retained = meta.get("emitted", 0) - meta.get("dropped", 0)
    if isinstance(retained, int) and retained != len(events):
        errors.append(
            f"trace-meta claims {retained} retained events, file has "
            f"{len(events)}")
    prev = None
    for lineno, ev in events:
        kind = ev.get("kind")
        if kind not in REQUIRED_KEYS:
            errors.append(f"line {lineno}: unknown kind {kind!r}")
            continue
        for field in ("at", "seq"):
            if not isinstance(ev.get(field), int):
                errors.append(f"line {lineno}: missing integer '{field}'")
        missing = REQUIRED_KEYS[kind] - set(ev)
        if missing:
            errors.append(
                f"line {lineno}: {kind} missing {sorted(missing)}")
        if (kind == "tcp-cwnd"
                and ev.get("cause") not in TCP_CWND_CAUSES):
            errors.append(
                f"line {lineno}: tcp-cwnd unknown cause "
                f"{ev.get('cause')!r}")
        key = (ev.get("at", 0), ev.get("seq", 0))
        if prev is not None and key <= prev:
            errors.append(
                f"line {lineno}: (at, seq) {key} not increasing after {prev}")
        prev = key
    return errors


def summarize(meta, events, path):
    counts = {}
    conns = set()
    routes = set()
    for _, ev in events:
        counts[ev["kind"]] = counts.get(ev["kind"], 0) + 1
        if "conn" in ev:
            conns.add(ev["conn"])
        if "route" in ev:
            routes.add((ev.get("host", "?"), ev["route"]))
    print(f"{path}: {meta['emitted']} emitted, {meta['dropped']} dropped, "
          f"{len(events)} retained")
    for kind in sorted(counts):
        print(f"  {kind:<16} {counts[kind]:>8}")
    print(f"  connections: {len(conns)}, (host, route) pairs: {len(routes)}")


def list_entities(events):
    conns = {}
    routes = {}
    for _, ev in events:
        if "conn" in ev:
            conns[ev["conn"]] = conns.get(ev["conn"], 0) + 1
        if "route" in ev:
            key = (ev.get("host", "?"), ev["route"])
            routes[key] = routes.get(key, 0) + 1
    print("connections (events):")
    for conn in sorted(conns):
        print(f"  {conn}  ({conns[conn]})")
    print("host routes (events):")
    for host, route in sorted(routes):
        print(f"  {host} -> {route}  ({routes[(host, route)]})")


def pick_conn(events, wanted):
    conns = sorted({ev["conn"] for _, ev in events if "conn" in ev})
    matches = [c for c in conns if wanted in c]
    if wanted in conns:
        return wanted
    if len(matches) == 1:
        return matches[0]
    if not matches:
        sys.exit(f"error: no traced connection matches {wanted!r} "
                 f"(use --list)")
    sys.exit("error: ambiguous connection; candidates:\n  "
             + "\n  ".join(matches))


def ascii_plot(rows, width=60):
    """rows: list of (t_ms, segments). One line per sample, bar-scaled."""
    peak = max(seg for _, seg in rows)
    if peak <= 0:
        return
    print(f"\n  cwnd (segments), peak = {peak:g}")
    for t_ms, seg in rows:
        bar = "#" * max(1, round(seg / peak * width)) if seg > 0 else ""
        print(f"  {t_ms:>12.3f} ms |{bar:<{width}}| {seg:g}")


def conn_timeline(events, conn, plot_width):
    state_names = [
        "Closed", "SynSent", "SynReceived", "Established", "FinWait1",
        "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait",
    ]

    def state(idx):
        return state_names[idx] if 0 <= idx < len(state_names) else str(idx)

    print(f"connection {conn}")
    print(f"  {'time (ms)':>12}  {'event':<12} {'detail'}")
    samples = []
    for _, ev in events:
        if ev.get("conn") != conn:
            continue
        t_ms = ev["at"] / 1e6
        if ev["kind"] == "tcp-state":
            print(f"  {t_ms:>12.3f}  {'state':<12} "
                  f"{state(ev['from'])} -> {state(ev['to'])}")
        elif ev["kind"] == "tcp-cwnd":
            segments = ev["cwnd"] / ev["mss"] if ev["mss"] else 0.0
            ssthresh = ev["ssthresh"]
            ss = ("inf" if ssthresh >= 2**63 else
                  f"{ssthresh / ev['mss']:g}" if ev["mss"] else str(ssthresh))
            print(f"  {t_ms:>12.3f}  {'cwnd':<12} {segments:g} segments "
                  f"(ssthresh {ss}) [{ev['cause']}]")
            samples.append((t_ms, segments))
        elif ev["kind"] == "tcp-rto":
            print(f"  {t_ms:>12.3f}  {'rto':<12} fired after "
                  f"{ev['rto_ns'] / 1e6:g} ms (retry {ev['retries']})")
    if not samples:
        sys.exit(f"error: no cwnd events for {conn}")
    ascii_plot(samples, plot_width)


def route_timeline(events, route, host):
    # A bare address matches its host route, so `--route 10.1.0.1` works
    # without spelling out the /32.
    if "/" not in route:
        route = route + "/32"
    shown = 0
    print(f"route {route}" + (f" on {host}" if host else " (all agents)"))
    print(f"  {'time (ms)':>12}  {'event':<16} {'detail'}")
    for _, ev in events:
        if ev.get("route") != route:
            continue
        if host and ev.get("host") != host:
            continue
        t_ms = ev["at"] / 1e6
        prefix = "" if host else f"[{ev.get('host', '?')}] "
        if ev["kind"] == "agent-decision":
            flags = []
            if ev["trend_reset"]:
                flags.append("trend-reset")
            if ev["capped"]:
                flags.append("capped")
            flag_str = f" ({', '.join(flags)})" if flags else ""
            print(f"  {t_ms:>12.3f}  {'decision':<16} {prefix}"
                  f"samples={ev['samples']} combined={ev['combined']:g} "
                  f"folded={ev['folded']:g} -> final={ev['final']:g}"
                  f"{flag_str}")
        elif ev["kind"] == "agent-program":
            print(f"  {t_ms:>12.3f}  {'program':<16} {prefix}"
                  f"{ev['verdict']} initcwnd={ev['initcwnd']} "
                  f"initrwnd={ev['initrwnd']} scale={ev['scale']:g}")
        elif ev["kind"] == "agent-route":
            print(f"  {t_ms:>12.3f}  {'route':<16} {prefix}"
                  f"{ev['cause']} window={ev['window']:g}")
        else:
            continue
        shown += 1
    if shown == 0:
        sys.exit(f"error: no events for route {route!r} (use --list)")


def governor_timeline(events, host):
    """Per-host SafetyGovernor state machine: every governor-state edge plus
    the rollbacks and staged programs/withdrawals that accompanied it."""
    hosts = sorted({ev["host"] for _, ev in events
                    if ev.get("kind") == "governor-state"})
    if host:
        if host not in hosts:
            sys.exit(f"error: no governor-state events for host {host!r}"
                     + (f"; hosts with events: {', '.join(hosts)}"
                        if hosts else " (none traced)"))
        hosts = [host]
    if not hosts:
        sys.exit("error: no governor-state events in trace")
    for agent_host in hosts:
        print(f"governor on {agent_host}")
        print(f"  {'time (ms)':>12}  {'edge':<36} {'cause':<10} {'detail'}")
        for _, ev in events:
            if ev.get("kind") != "governor-state":
                continue
            if ev["host"] != agent_host:
                continue
            t_ms = ev["at"] / 1e6
            edge = (ev["from"] if ev["from"] == ev["to"]
                    else f"{ev['from']} -> {ev['to']}")
            detail = f"routes={ev['routes']}"
            if ev["retrans_fraction"] > 0:
                detail += f" retrans={ev['retrans_fraction']:.4g}"
            print(f"  {t_ms:>12.3f}  {edge:<36} {ev['cause']:<10} {detail}")


def main():
    parser = argparse.ArgumentParser(
        description="Render riptide decision-audit traces.")
    parser.add_argument("file", help="JSONL trace (riptide_sim --trace ...)")
    parser.add_argument("--check", action="store_true",
                        help="validate schema and ordering; exit non-zero "
                             "on any violation")
    parser.add_argument("--list", action="store_true",
                        help="list traced connections and routes")
    parser.add_argument("--conn", metavar="CONN",
                        help="cwnd timeline for one connection "
                             "(exact 'a:p-b:p' or unique substring)")
    parser.add_argument("--route", metavar="PREFIX",
                        help="decision timeline for one route (a.b.c.d/len)")
    parser.add_argument("--governor", action="store_true",
                        help="SafetyGovernor state timeline per agent")
    parser.add_argument("--host", metavar="ADDR",
                        help="restrict --route/--governor to one agent host")
    parser.add_argument("--plot-width", type=int, default=60,
                        help="ASCII plot width in characters")
    args = parser.parse_args()

    try:
        meta, events = load(args.file)
    except (OSError, ValueError) as err:
        sys.exit(f"error: {err}")

    if args.check:
        errors = check(meta, events)
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        if errors:
            sys.exit(1)
        print(f"{args.file}: OK ({len(events)} events, "
              f"{meta['dropped']} dropped)")
        return

    if args.list:
        list_entities(events)
    elif args.conn:
        conn_timeline(events, pick_conn(events, args.conn), args.plot_width)
    elif args.route:
        route_timeline(events, args.route, args.host)
    elif args.governor:
        governor_timeline(events, args.host)
    else:
        summarize(meta, events, args.file)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal, not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
