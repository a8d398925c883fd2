"""``repro.serve``: a long-lived, concurrency-safe sweep/query service.

The production face of the reproduction: one persistent process that
answers analytic scenario queries from warm batch kernels, schedules
simulation sweeps on a worker pool, and shares one content-addressed
cache store across any number of concurrent clients.  Start it with
``lopc-repro serve`` (or :func:`make_server` in-process), talk to it
with :class:`Client` or the ``submit``/``status``/``fetch``/``query``
CLI verbs.

Layers (all stdlib-only):

:mod:`repro.serve.service`
    :class:`SweepService` -- singleflight request coalescing, a batch
    window that merges co-arriving analytic points into one vectorized
    kernel solve (and closes at once for a lone miss, a batch of one
    through the same companion), and a scheduler routing batch-capable
    evaluators inline and sim evaluators to a persistent worker pool
    with async :class:`Job` objects (progress streamed from
    :mod:`repro.obs` events).
:mod:`repro.serve.http`
    The JSON-over-HTTP front end: a threading TCP server speaking the
    small HTTP/1.1 subset below, with persistent connections.
:mod:`repro.serve.client`
    :class:`Client`, returning the same typed objects as the
    in-process facade over one kept-alive connection per thread.
:mod:`repro.serve.migrate`
    :func:`migrate_cache` -- verified byte-exact conversion between the
    file-tree and sqlite cache backends.

Wire protocol ``lopc-serve/1``
------------------------------
Versioned like the fuzz corpus formats; bump on any incompatible
change.  All requests and responses are JSON; the payload shapes are
the library's existing round trips, not bespoke schemas:

* point queries return :meth:`repro.api.Solution.to_dict` (the
  ``meta`` side gains ``cached``/``key``/``coalesced`` provenance);
* sweep submits take :meth:`repro.sweep.SweepSpec.to_json_dict` and
  results return :meth:`repro.sweep.SweepResult.to_dict`
  (``lopc-sweep-result/1``);
* optimize queries return :meth:`repro.opt.result.OptResult.to_dict`;
* ``/metrics`` returns :meth:`repro.obs.MetricsRegistry.as_dict`.

Endpoints: ``GET /v1/health``, ``POST /v1/point``, ``POST /v1/sweep``,
``GET /v1/jobs``, ``GET /v1/jobs/<id>[?since=N]``,
``GET /v1/jobs/<id>/result``, ``POST /v1/optimize``,
``GET /v1/cache/stats``, ``GET /metrics``.  Errors are
``{"error": msg}`` with 4xx/5xx status.

No ``http.server``/``http.client``: GET/POST, ``Content-Length`` bodies
(413 over 4 MiB, 501 for ``Transfer-Encoding``), ``Expect: 100-continue``,
keep-alive (HTTP/1.0 only on request) -- see :mod:`repro.serve.http`.
"""

from repro.serve.client import Client, ServeError
from repro.serve.http import (
    PROTOCOL,
    ServeHTTPServer,
    make_server,
    serve_forever,
)
from repro.serve.migrate import MigrationReport, migrate_cache
from repro.serve.service import Job, PointOutcome, SweepService

__all__ = [
    "Client",
    "Job",
    "MigrationReport",
    "PROTOCOL",
    "PointOutcome",
    "ServeError",
    "ServeHTTPServer",
    "SweepService",
    "make_server",
    "migrate_cache",
    "serve_forever",
]
