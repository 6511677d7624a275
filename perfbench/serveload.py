"""The closed-loop client of the ``serve`` workload.

One client on one keep-alive connection sends the next request only
after the previous answer arrives.  A session is:

* ``GET /healthz`` for the starting day count;
* ``CYCLES`` cycles, each a warm-up pair (``/leaks``, ``/occupancy``,
  so every read after it is a memo hit), ``READS`` timed reads from the
  mix, ``POST /ingest/day`` of the next day, the first ``GET /leaks``
  after it (a recompute) and ``GET /healthz`` to see the day land;
* a closing sweep of ``/prefix/{p}/dynamicity?history=1`` over every
  /24, whose answers feed the ingest/batch parity check.

Every request counts as one operation; a non-200 answer, a body that
is not JSON or a broken connection counts as failed.  After a broken
connection the rest of the session is counted as failed unsent, so a
session always attempts the same number of operations.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

CYCLES = 6
READS = 2100

#: The read mix, in rotation.  Hourly occupancy (``?network=``) is left
#: out: its first hit simulates a six-week campaign.
MIX = (
    "prefix",
    "prefix_history",
    "leaks",
    "leaks_suffix",
    "names",
    "occupancy",
    "occupancy_prefix",
)


class ConnectionLost(Exception):
    """The server closed the connection or stopped answering."""


class Session:
    """Counts, timings and the answers the checks need."""

    def __init__(self, planned: int):
        self.planned = planned
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.read_seconds: List[float] = []
        self.read_block_seconds = 0.0
        self.ingest_seconds: List[float] = []
        self.refresh_seconds: List[float] = []
        self.client_cpu_seconds = 0.0
        self.histories: Dict[str, List[int]] = {}
        self.served: Dict[str, dict] = {}
        self.thresholds: Optional[dict] = None
        self.days: List[str] = []

    def lose_rest(self) -> None:
        """Count the operations a broken connection left unsent."""
        missing = self.planned - self.attempted
        self.attempted += missing
        self.failed += missing


class Client:
    """One keep-alive HTTP/1.1 connection; every call is one operation."""

    def __init__(self, port: int, session: Session, *, timeout: float = 60.0):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        self.session = session

    def close(self) -> None:
        self.connection.close()

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[Optional[dict], float]:
        """``(payload or None when the operation failed, seconds)``."""
        session = self.session
        session.attempted += 1
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            session.failed += 1
            session.problems.append(f"{method} {path}: {type(error).__name__}: {error}")
            raise ConnectionLost(str(error)) from error
        elapsed = time.perf_counter() - started
        if response.status != 200:
            session.failed += 1
            session.problems.append(f"{method} {path}: HTTP {response.status}")
            return None, elapsed
        try:
            payload = json.loads(raw)
        except ValueError:
            session.failed += 1
            session.problems.append(f"{method} {path}: body is not JSON")
            return None, elapsed
        return payload, elapsed


def planned_requests(prefix_count: int) -> int:
    """Operations in one session (the same for every session)."""
    return 1 + CYCLES * (2 + READS + 3) + prefix_count


def read_paths(prefixes: Sequence[str], suffixes: Sequence[str], count: int,
               start: int) -> List[str]:
    """``count`` paths from the mix; /24s and suffixes cycle from ``start``."""
    paths = []
    for index in range(count):
        kind = MIX[index % len(MIX)]
        prefix = prefixes[(start + index) % len(prefixes)]
        if kind == "prefix":
            paths.append(f"/prefix/{prefix}/dynamicity")
        elif kind == "prefix_history":
            paths.append(f"/prefix/{prefix}/dynamicity?history=1")
        elif kind == "leaks":
            paths.append("/leaks")
        elif kind == "leaks_suffix":
            paths.append(f"/leaks?suffix={suffixes[(start + index) % len(suffixes)]}")
        elif kind == "names":
            paths.append("/names?top=10")
        elif kind == "occupancy":
            paths.append("/occupancy")
        else:
            paths.append(f"/occupancy?prefix={prefix}")
    return paths


def run_session(port: int, prefixes: Sequence[str], seed: int) -> Session:
    """Drive one booted server through the whole session."""
    order = list(prefixes)
    random.Random(seed).shuffle(order)
    session = Session(planned_requests(len(order)))
    client = Client(port, session)
    cpu_started = time.process_time()
    try:
        _cycles(client, session, order)
        _closing_sweep(client, session, order)
    except ConnectionLost:
        session.lose_rest()
    finally:
        session.client_cpu_seconds = time.process_time() - cpu_started
        client.close()
    return session


def _cycles(client: Client, session: Session, prefixes: Sequence[str]) -> None:
    health, _ = client.call("GET", "/healthz")
    days = health["days"] if health else None
    suffixes: List[str] = []
    cursor = 0
    for _ in range(CYCLES):
        leaks, _ = client.call("GET", "/leaks")
        client.call("GET", "/occupancy")
        if leaks is not None:
            suffixes = sorted(leaks["suffixes"]) or suffixes
        paths = read_paths(prefixes, suffixes or ["-"], READS, cursor)
        cursor += READS
        block_started = time.perf_counter()
        for path in paths:
            payload, elapsed = client.call("GET", path)
            if payload is not None:
                session.read_seconds.append(elapsed)
        session.read_block_seconds += time.perf_counter() - block_started

        next_day = health["next_day"] if health else None
        ingest, elapsed = client.call("POST", "/ingest/day", {"day": next_day})
        if ingest is not None:
            session.ingest_seconds.append(elapsed)
            session.thresholds = ingest["dynamicity"]["thresholds"]
        _, elapsed = client.call("GET", "/leaks")
        session.refresh_seconds.append(elapsed)
        health, _ = client.call("GET", "/healthz")
        if health is not None and days is not None and health["days"] != days + 1:
            session.problems.append(f"ingest moved /healthz days {days} -> {health['days']}")
        days = health["days"] if health else None


def _closing_sweep(client: Client, session: Session, prefixes: Sequence[str]) -> None:
    for prefix in prefixes:
        payload, _ = client.call("GET", f"/prefix/{prefix}/dynamicity?history=1")
        if payload is None:
            continue
        session.days = payload["history"]["days"]
        session.histories[prefix] = payload["history"]["counts"]
        session.served[prefix] = {
            "eligible": payload["eligible"],
            "is_dynamic": payload["is_dynamic"],
            "change_days": payload["change_days"],
            "observed_days": payload["observed_days"],
        }


def batch_verdicts(session: Session) -> Dict[str, dict]:
    """A batch analysis over the served histories, in the served shape."""
    import datetime as dt

    from repro.core.dynamicity import DynamicityAnalyzer, DynamicityThresholds

    daily: Dict[dt.date, Dict[str, int]] = {}
    for index, day in enumerate(session.days):
        daily[dt.date.fromisoformat(day)] = {
            prefix: counts[index]
            for prefix, counts in session.histories.items()
            if counts[index]
        }
    analyzer = DynamicityAnalyzer(DynamicityThresholds(**session.thresholds))
    report = analyzer.analyze(daily)
    verdicts = {}
    for prefix in session.histories:
        info = report.prefixes.get(prefix)
        verdicts[prefix] = {
            "eligible": info is not None,
            "is_dynamic": info.is_dynamic if info is not None else False,
            "change_days": info.change_days if info is not None else None,
            "observed_days": info.observed_days if info is not None else None,
        }
    return verdicts
