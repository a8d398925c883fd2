"""Event-driven simulator of the LoPC machine model (paper Chapter 2).

This package is the validation substrate of the reproduction.  The paper
validated LoPC against (a) an event-driven simulator with a
contention-free network and infinite hardware message buffers and (b)
microbenchmarks on the MIT Alewife machine, noting the simulator matched
Alewife "to within about 1%".  We implement exactly the simulator spec:

* ``P`` processing nodes, each running one background computation thread;
* active messages: a message carries a handler; on arrival it interrupts
  the running thread and the handler executes *atomically*;
* messages arriving while a handler runs are queued in an (infinite)
  hardware FIFO and dispatched in order at handler completion;
* the thread is preempt-resume: work interrupted by handlers continues
  where it left off once the FIFO drains;
* the interconnect is contention-free with latency ``St`` per hop.

The simulator is *programmable*: thread bodies are Python generators
yielding :class:`~repro.sim.threads.Compute`, :class:`~repro.sim.threads.Send`
and :class:`~repro.sim.threads.Wait` effects, and handlers are plain
callables that may touch node-local memory and send further messages --
true active messages, sufficient to run real programs (the matrix-vector
example actually computes ``y = A x`` on the simulated machine).
"""

from repro.sim.distributions import (
    Constant,
    Exponential,
    Gamma,
    HyperExponential,
    ServiceDistribution,
    Uniform,
    from_mean_cv2,
)
from repro.sim.engine import Simulator
from repro.sim.machine import Machine, MachineConfig
from repro.sim.messages import Message
from repro.sim.network import ContentionFreeNetwork
from repro.sim.node import Node
from repro.sim.stats import (
    CycleRecord,
    NodeStats,
    batch_means_ci,
    summarize_cycles,
)
from repro.sim.streams import (
    IntegerStream,
    SampleStream,
    StreamExhausted,
    StreamRegistry,
)
from repro.sim.threads import Compute, Done, Send, Wait
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Compute",
    "Constant",
    "ContentionFreeNetwork",
    "CycleRecord",
    "Done",
    "Exponential",
    "Gamma",
    "HyperExponential",
    "IntegerStream",
    "Machine",
    "MachineConfig",
    "Message",
    "Node",
    "NodeStats",
    "SampleStream",
    "Send",
    "ServiceDistribution",
    "Simulator",
    "StreamExhausted",
    "StreamRegistry",
    "TraceEvent",
    "TraceRecorder",
    "Uniform",
    "Wait",
    "batch_means_ci",
    "from_mean_cv2",
    "summarize_cycles",
]
