"""Open-loop load generator for the serving workload (its own process).

Usage::

    python3 loadgen.py HOST PORT SCHEDULE.json

The schedule is a list of phases, each a list of ``[due_offset_s, line]``
pairs.  Before each phase the generator prints ``{"event": "ready"}`` and
waits for one line on stdin, so the caller can prepare the phase (for
instance switch tracing on); it then sends every line at its due time
whether or not earlier replies have come back, over one TCP connection
kept for the whole run.  When every line of the phase has its reply it
prints ``{"event": "done", "records": [...]}``: per line the due, send
and reply instants, relative to the phase start, and the reply fields
the caller checks.  After the last phase it prints ``{"event": "end"}``
with the ids of any replies no line was waiting for.  A request is
timed from when it was due, so a stall that delays later sends is
charged to them.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

#: Seconds between "go" and the first due instant of a phase.
LEAD_S = 0.05
#: Longest a phase may wait for its last reply once every line is sent.
REPLY_TIMEOUT_S = 120.0
#: Reply fields the caller checks; the rest of a reply is dropped here.
KEPT = ("ok", "tenant", "kind", "members", "willingness", "generation", "applied", "error")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _run(host: str, port: int, phases) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    replies: "dict[str, list]" = {}
    arrived = asyncio.Event()

    async def collect() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            payload = json.loads(line)
            replies.setdefault(str(payload.get("id")), []).append(
                (time.monotonic(), {k: payload[k] for k in KEPT if k in payload})
            )
            arrived.set()

    collector = asyncio.create_task(collect())
    try:
        for schedule in phases:
            _emit({"event": "ready"})
            if not await stdin.readline():
                return
            start = time.monotonic() + LEAD_S
            sent: "dict[str, tuple[float, float]]" = {}
            for offset, line in schedule:
                due = start + offset
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent[str(line["id"])] = (due, time.monotonic())
                writer.write((json.dumps(line) + "\n").encode())
                await writer.drain()
            deadline = time.monotonic() + REPLY_TIMEOUT_S
            while not all(key in replies for key in sent):
                arrived.clear()
                remaining = deadline - time.monotonic()
                if remaining <= 0 or collector.done():
                    break
                try:
                    await asyncio.wait_for(arrived.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            records = []
            for key, (due, at) in sent.items():
                got = replies.pop(key, [])
                records.append({
                    "id": key,
                    "due": due - start,
                    "sent": at - start,
                    "replies": [[t - start, payload] for t, payload in got],
                })
            _emit({"event": "done", "records": records})
        # Replies no sent line was waiting for (duplicates, unknown ids).
        _emit({"event": "end", "stray": sorted(replies)})
    finally:
        collector.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def main() -> int:
    host, port, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(path) as handle:
        phases = json.load(handle)
    asyncio.run(_run(host, port, phases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
