"""repro.api -- the fluent scenario facade over the whole system.

One coherent entry point to the three engines the reproduction grew:
the analytic LoPC/MVA solvers (:mod:`repro.core`, :mod:`repro.mva`),
the event-driven simulator (:mod:`repro.sim`), and the cached parallel
sweep runner (:mod:`repro.sweep`)::

    from repro import scenario

    sc = scenario("alltoall", P=32, St=40.0, So=200.0, C2=0.0, W=1000.0)
    sc.analytic().response_time        # LoPC AMVA prediction
    sc.bounds()["upper"]               # Eq. 5.12 rule-of-thumb bound
    sc.simulate(seed=7, cycles=200).R  # event-driven measurement

    study = sc.study(W=range(2, 2049, 64), jobs=4, cache=".lopc-cache")
    study.analytic()                   # SweepResult via the sweep engine

Layers
------
:mod:`repro.api.solution`
    :class:`Solution` -- the uniform typed result every backend returns
    (JSON round trip via ``to_dict``/``from_dict``).
:mod:`repro.api.scenario`
    The machinery: parameter schemas (:class:`Param`,
    :class:`ParamFamily`), :class:`Backend` declarations, the
    :class:`Scenario` base class and the :func:`scenario` factory.
:mod:`repro.api.scenarios`
    The built-in workloads -- all-to-all, workpile, multi-class MVA,
    non-blocking -- each declaring schema + backends + batch kernels in
    one class.  Each backend enters the one backend table under its
    evaluator name, so the facade and name-keyed sweeps share one
    implementation, one parameter check and one result cache.
:mod:`repro.api.study`
    :class:`Study` -- sweeps expressed on the facade, compiled down to
    the existing :class:`~repro.sweep.spec.SweepSpec` runner (cache
    keys unchanged).
"""

from repro.api.scenario import (
    Backend,
    Param,
    ParamFamily,
    RetiredValueError,
    Scenario,
    UnsupportedBackend,
    find_backend,
    get_backend,
    get_scenario_class,
    list_scenarios,
    resolve_params,
    scenario,
)
from repro.api.solution import Solution
from repro.api.scenarios import (
    AllToAllScenario,
    MultiClassScenario,
    NonBlockingScenario,
    SharedMemoryScenario,
    WorkpileScenario,
)
from repro.api.study import Study

__all__ = [
    "AllToAllScenario",
    "Backend",
    "MultiClassScenario",
    "NonBlockingScenario",
    "Param",
    "ParamFamily",
    "RetiredValueError",
    "Scenario",
    "SharedMemoryScenario",
    "Solution",
    "Study",
    "UnsupportedBackend",
    "WorkpileScenario",
    "find_backend",
    "get_backend",
    "get_scenario_class",
    "list_scenarios",
    "resolve_params",
    "scenario",
]
