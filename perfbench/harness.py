"""Run one CLI command in-process under a CPU-time limit.

The command goes through ``ccsynth.cli.run_command``, the same entry
point as the ``ccsynth`` executable.  Its stdout is captured for
checking and its stderr kept off the console.  The limit is a
``SIGPROF`` interval timer on process CPU time, so a busy machine does
not change which instances time out.
"""

from __future__ import annotations

import contextlib
import gc
import io
import signal
import time
from dataclasses import dataclass

from ccsynth import cli


class CommandTimeout(BaseException):
    """Raised by the timer signal inside a command that ran past its limit.

    Derived from BaseException so that no ``except Exception`` in the
    program swallows it.
    """

    def __init__(self, cut_in: str | None):
        super().__init__(cut_in)
        self.cut_in = cut_in


@dataclass
class Outcome:
    code: int | None
    stdout: str
    seconds: float
    timed_out: bool = False
    # Innermost traced function open when the limit fired.
    cut_in: str | None = None


class CpuLimit:
    """Owns the SIGPROF handler; one per process.

    ``tracer``, when set, names the traced function that was running
    when the limit fired.
    """

    def __init__(self):
        self.armed = False
        self.tracer = None
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CommandTimeout(self.tracer.open_span() if self.tracer else None)

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)

    def call(self, fn, seconds: float):
        """``(fn(), None)``, or ``(None, timeout)`` when ``fn`` is cut."""
        try:
            try:
                self.arm(seconds)
                return fn(), None
            finally:
                self.disarm()
        except CommandTimeout as exc:
            return None, exc


def invoke(argv: list[str], limit: float, timer: CpuLimit) -> Outcome:
    """One command, timed from ``run_command`` entry to return.

    Garbage is collected before the clock starts, so every command
    begins from a heap close to that of a fresh CLI process.  A timeout
    is an outcome, not an error: its time is the measured time to the
    cut, which is the limit plus the signal's latency.
    """
    out = io.StringIO()
    code = None
    timed_out, cut_in = False, None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            try:
                timer.arm(limit)
                code = cli.run_command(argv)
                t1 = time.perf_counter()
            finally:
                timer.disarm()
        except CommandTimeout as exc:
            # Taken before the cut frames are freed, as a return frees
            # its frame before the caller's clock runs.
            t1 = time.perf_counter()
            timed_out, cut_in = True, exc.cut_in
    return Outcome(code, out.getvalue(), t1 - t0, timed_out, cut_in)
