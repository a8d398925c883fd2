"""Thread programs: the generator-based effect API.

The background computation thread on each node is written as a Python
generator that *yields effects*; the node runtime interprets them with
the machine semantics of paper Chapter 2:

* :class:`Compute` -- consume CPU cycles at low priority.  Arriving
  handlers preempt the computation; the remaining cycles resume once the
  handler FIFO drains (preempt-resume).
* :class:`Send` -- inject an active message (modelled as free: LoPC
  assumes cheap user-level sends; an optional per-machine
  ``send_overhead`` can charge compute cycles instead).
* :class:`Wait` -- block until a predicate over node state becomes true.
  Handlers that change state call :meth:`~repro.sim.node.Node.notify`,
  and the node re-evaluates the predicate *when the FIFO is empty* --
  exactly the paper's semantics where queued high-priority handlers run
  before the spinning thread gets the CPU back.
* :class:`Done` -- optional explicit termination marker (returning from
  the generator is equivalent).

A blocking request (the paper's Figure 4-2 timeline) is then simply::

    yield Compute(W)
    node.memory["replied"] = False
    yield Send(dest, request_handler, payload=...)   # handler replies
    yield Wait(lambda node: node.memory["replied"])

This keeps workload code honest: the cycle structure measured by the
statistics module is produced by the same mechanism an Alewife program
would use (spin on a counter flipped by the reply handler).

Effects are slotted, mutable, unhashable value objects: a thread builds
one per yield on the hot path, and a frozen dataclass would pay an
``object.__setattr__`` per field to build it.  Nothing mutates, compares
or hashes an effect once yielded, so a thread may build a cycle-invariant
effect once and yield it every cycle -- the workloads hoist their
``Wait`` out of the loop this way.  The node dispatches on an effect's
exact class, so subclasses of the four effects are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.messages import Message
    from repro.sim.node import Node

__all__ = ["Compute", "Done", "Send", "ThreadEffect", "Wait"]


class ThreadEffect:
    """Marker base class for effects a thread generator may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Compute(ThreadEffect):
    """Consume ``duration`` cycles of CPU at thread (lowest) priority.

    A negative ``duration`` raises ValueError when the node runs the
    effect, not when it is built.
    """

    duration: float


@dataclass(slots=True)
class Send(ThreadEffect):
    """Inject an active message addressed to node ``dest``.

    Attributes
    ----------
    dest:
        Destination node id.
    handler:
        ``(node, message) -> None`` to run at the destination.
    kind:
        Statistics label, usually ``"request"``.
    payload:
        Arbitrary data carried by the message.
    service_time:
        Explicit handler service requirement; None draws from the
        machine's handler-time distribution.
    """

    dest: int
    handler: Callable[["Node", "Message"], None]
    kind: str = "request"
    payload: Any = None
    service_time: float | None = None


@dataclass(slots=True)
class Wait(ThreadEffect):
    """Block the thread until ``predicate(node)`` holds.

    The predicate is checked when the effect is yielded (an already-true
    predicate does not block) and re-checked at every handler completion
    that leaves the FIFO empty, after :meth:`~repro.sim.node.Node.notify`.
    """

    predicate: Callable[["Node"], bool]
    #: Diagnostic label shown in livelock errors.
    label: str = field(default="wait", compare=False)


@dataclass(slots=True)
class Done(ThreadEffect):
    """Explicitly end the thread (same as returning from the generator)."""
