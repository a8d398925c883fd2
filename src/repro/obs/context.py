"""The active-telemetry context: how hooks find the registry.

The instrumented layers (solvers, batch kernels, simulator, executors)
cannot take a ``metrics=`` argument without threading it through every
model and evaluator signature -- and through the cache keys those
signatures feed.  Instead, one *active bundle* per thread is
installed for the duration of a run (:func:`activate`, used by
``run_sweep`` and the CLI) and hooks look it up:

    tel = context.active()
    if tel is None:          # the disabled path: one check, no work
        ...

``active() is None`` is the whole disabled-overhead story, mirroring
the ``node.tracer`` idiom of :mod:`repro.sim.trace`.  The bundle is
thread-local: concurrent sweeps on a server's threads each see their
own, and a block's exit restores its thread's previous bundle however
the threads interleave.  Process-pool workers never see the parent's
registry either (their wall time and event counts travel back in record
meta instead), which is documented behaviour, not an accident.

:func:`telemetry` is the public convenience wrapper: it coerces path /
callable arguments and activates the bundle around a ``with`` block, so
any code path -- not just ``run_sweep`` -- can be observed::

    with telemetry(metrics=reg):
        model.solve_work(1000.0)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.events import EventLog, SinkLike
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter, as_progress

__all__ = [
    "Telemetry", "activate", "active", "current_metrics", "resolve",
    "telemetry",
]


@dataclass(frozen=True)
class Telemetry:
    """The bundle of sinks a run records into (any subset may be None).

    ``retire`` is ``run_sweep``'s progress hook, set only while a
    progress reporter or event sink is attached: the batch kernels call
    it with the rows an iteration retired, the executors per task.
    """

    metrics: MetricsRegistry | None = None
    events: EventLog | None = None
    progress: ProgressReporter | None = None
    retire: Callable[[int], None] | None = None

    @property
    def enabled(self) -> bool:
        return (
            self.metrics is not None
            or self.events is not None
            or self.progress is not None
        )


_ACTIVE: ContextVar[Telemetry | None] = ContextVar(
    "repro_obs_active", default=None
)

def active() -> Telemetry | None:
    """The currently-installed bundle, or None (telemetry disabled)."""
    return _ACTIVE.get()


def current_metrics() -> MetricsRegistry | None:
    """Shorthand for the active bundle's registry (hot-path hooks)."""
    tel = _ACTIVE.get()
    return tel.metrics if tel is not None else None


@contextmanager
def activate(tel: Telemetry | None) -> Iterator[Telemetry | None]:
    """Install ``tel`` as the active bundle for the block (re-entrant)."""
    token = _ACTIVE.set(tel)
    try:
        yield tel
    finally:
        _ACTIVE.reset(token)


def resolve(
    metrics: MetricsRegistry | bool | None = None,
    events: SinkLike = None,
    progress: object = None,
    fallback: Telemetry | None = None,
) -> tuple[Telemetry, bool]:
    """A bundle from sink spellings, plus whether it opened its event log.

    ``metrics=True`` creates a fresh :class:`MetricsRegistry` and
    ``False`` means none; ``events`` accepts a path, an open file, or an
    :class:`EventLog`; ``progress`` accepts a reporter or a bare
    ``(done, total, info)`` callable.  A ``None`` argument takes
    ``fallback``'s sink.  An event log opened here (from a path or
    file) is the caller's to close.
    """
    if metrics is None and fallback is not None:
        metrics = fallback.metrics
    elif metrics is True:
        metrics = MetricsRegistry()
    elif metrics is False:
        metrics = None
    own_events = not isinstance(events, (EventLog, type(None)))
    if events is None and fallback is not None:
        log = fallback.events
    else:
        log = EventLog.coerce(events)
    if progress is None and fallback is not None:
        reporter = fallback.progress
    else:
        reporter = as_progress(progress)
    tel = Telemetry(metrics=metrics, events=log, progress=reporter)
    return tel, own_events


@contextmanager
def telemetry(
    metrics: MetricsRegistry | bool | None = None,
    events: SinkLike = None,
    progress: object = None,
) -> Iterator[Telemetry]:
    """Activate a telemetry bundle around a block, coercing sink spellings.

    The arguments are :func:`resolve`'s; read a fresh registry off the
    yielded bundle.  An event log opened here (from a path) is closed
    on exit.
    """
    tel, own_events = resolve(metrics, events, progress)
    try:
        with activate(tel):
            yield tel
    finally:
        if own_events:
            tel.events.close()
