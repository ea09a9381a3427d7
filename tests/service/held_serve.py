"""``repro serve`` that holds each job after its first trial until a cancel.

Run as ``python held_serve.py serve --state DIR``.  Every job's first
``trial`` event is published, then the executor thread waits until the
daemon's ``should_cancel`` turns true (a cancel was acknowledged, or the
daemon is stopping) before the next trial can finish.  A cancel test
therefore cannot lose the race against a short sweep completing: the
job is still mid-sweep when the cancel lands, whatever the host speed.
The hold gives up after ``HOLD_S`` so a missing cancel fails the test's
assertions instead of hanging it.
"""

import sys
import time

from repro.cli import main
from repro.service import daemon

HOLD_S = 60.0

_execute_job = daemon.execute_job


def held_execute_job(view, state, publish, should_cancel):
    held = []

    def publish_then_hold(event):
        publish(event)
        if event.get("event") == "trial" and not held:
            held.append(event)
            deadline = time.monotonic() + HOLD_S
            while not should_cancel() and time.monotonic() < deadline:
                time.sleep(0.01)

    return _execute_job(view, state, publish_then_hold, should_cancel)


daemon.execute_job = held_execute_job

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
