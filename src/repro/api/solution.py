"""The uniform result type of the scenario facade.

Every facade entry point -- ``Scenario.analytic()``, ``.bounds()``,
``.simulate()``, and each point of a :class:`~repro.api.study.Study` --
returns a :class:`Solution`: one typed record naming the scenario and
backend that produced it, the fully-resolved parameters (explicit values
plus the backend's result-affecting defaults, exactly what the sweep
cache keys on), the value columns, and the evaluation metadata.

Values are the *same* flat column dicts the evaluators emit
(``R``, ``X``, ``Rq`` ... in the paper's notation), so a ``Solution`` is
interchangeable with a cached sweep record; :meth:`Solution.to_dict` /
:meth:`Solution.from_dict` round-trip through plain JSON.  Columns are
reachable three ways::

    sol["R"]             # mapping style
    sol.R                # attribute style (any value column)
    sol.response_time    # the common aliases, spelled out

so quick scripts can use the paper's symbols while longer programs read
aloud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["Solution"]

#: Common column aliases: long, readable names for the paper's symbols.
_ALIASES: dict[str, str] = {
    "response_time": "R",
    "throughput": "X",
    "compute_residence": "Rw",
    "request_residence": "Rq",
    "reply_residence": "Ry",
}


@dataclass(frozen=True)
class Solution:
    """One evaluated scenario point: typed provenance + value columns.

    Attributes
    ----------
    scenario:
        Registered scenario name (``"alltoall"``, ``"workpile"``, ...).
    backend:
        Which backend produced the values: ``"analytic"``, ``"bounds"``
        or ``"sim"``.
    evaluator:
        The evaluator name the backend is registered under
        (``"alltoall-model"`` ...); with :attr:`params` this identifies
        the sweep-cache record the same evaluation would hit.
    params:
        Fully-resolved parameters: the explicit values merged over the
        backend's result-affecting defaults -- byte-identical to what
        :func:`repro.sweep.runner.run_sweep` caches points under.
    values:
        Flat result columns in the paper's notation.
    meta:
        Non-result metadata (``wall_time``, simulator ``events``, ...).
    """

    scenario: str
    backend: str
    evaluator: str
    params: Mapping[str, object]
    values: Mapping[str, float]
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    # -- column access -------------------------------------------------
    def __getitem__(self, name: str) -> float:
        """``sol["R"]``: one value column."""
        return self.values[name]

    def __getattr__(self, name: str):
        # Only consulted for names that are not dataclass fields.
        values = object.__getattribute__(self, "values")
        key = _ALIASES.get(name, name)
        if key in values:
            return values[key]
        raise AttributeError(
            f"{type(self).__name__} for scenario "
            f"{object.__getattribute__(self, 'scenario')!r} has no value "
            f"column {key!r}; columns: {sorted(values)}"
        )

    def __contains__(self, name: str) -> bool:
        return name in self.values

    @property
    def columns(self) -> list[str]:
        """Value column names, sorted for stable display."""
        return sorted(self.values)

    def satisfies(self, *constraints: object) -> bool:
        """Whether this solution meets :mod:`repro.opt` constraint
        predicates, e.g. ``sol.satisfies("R <= 1000", "X >= 0.01")``.

        Predicates may reference any parameter or value column (values
        shadow same-named parameters, matching the optimizer's view);
        an unknown column raises ``KeyError`` naming the known ones.
        """
        from repro.opt.space import parse_constraints

        merged = {**dict(self.params), **dict(self.values)}
        return all(c.ok(merged) for c in parse_constraints(constraints))

    # -- round trip ----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form; inverse of :meth:`from_dict`."""
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "evaluator": self.evaluator,
            "params": dict(self.params),
            "values": dict(self.values),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Solution":
        """Rebuild a :class:`Solution` from :meth:`to_dict` output."""
        unknown = set(data) - {
            "scenario", "backend", "evaluator", "params", "values", "meta",
        }
        if unknown:
            raise ValueError(f"unknown Solution keys: {sorted(unknown)}")
        return cls(
            scenario=str(data["scenario"]),
            backend=str(data["backend"]),
            evaluator=str(data["evaluator"]),
            params=dict(data["params"]),
            values=dict(data["values"]),
            meta=dict(data.get("meta", {})),
        )

    def to_json(self) -> str:
        """Compact JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        """Rebuild a :class:`Solution` from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One human line: scenario, backend, and the headline columns."""
        head = ", ".join(
            f"{k}={self.values[k]:.6g}"
            for k in ("R", "X")
            if k in self.values
        )
        extra = len(self.values) - sum(k in self.values for k in ("R", "X"))
        tail = f" (+{extra} more columns)" if extra > 0 else ""
        return f"{self.scenario}/{self.backend}: {head or 'no R/X'}{tail}"
