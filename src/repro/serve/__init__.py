"""Tuning-as-a-service front end (``repro serve``).

Promotes the batch experiment harness into a long-running, sharded,
multi-tenant service: each tenant is a live application instance
streaming iteration durations in (``observe``) and receiving the next
configuration out (``propose``), speaking newline-delimited canonical
JSON over a fully deterministic in-process transport.

The package is imported directly (``from repro.serve import ...``)
rather than re-exported through :mod:`repro.obs` -- like the timeline
analyzer it sits *above* the strategy/measure layers, so pulling it
into a low-level ``__init__`` would create import cycles.

Layering:

- :mod:`repro.serve.protocol` -- schema-versioned message types and the
  canonical JSONL wire rendering (no repo dependencies beyond obs.sink).
- :mod:`repro.serve.session` -- one tenant's strategy lifecycle behind
  the propose/observe contract.
- :mod:`repro.serve.service` -- shard workers, stable tenant hashing,
  batched per-tick servicing, and the shared content-fingerprint-keyed
  bank store.
- :mod:`repro.serve.loadgen` -- the deterministic load generator behind
  ``repro serve bench`` and the root ``BENCH_serve.json`` artifact.
"""

from .protocol import (  # noqa: F401
    MAX_LINE_BYTES,
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    error_response,
    parse_request,
    render,
)
from .session import SERVE_TAG, TenantSession, derive_tenant_seed  # noqa: F401
from .service import BankStore, ShardWorker, TuningService, shard_for  # noqa: F401
from .loadgen import (  # noqa: F401
    TenantSpec,
    latency_verdicts,
    run_bench,
    sample_tenants,
    write_serve_report,
)

__all__ = [
    "MAX_LINE_BYTES",
    "SERVE_SCHEMA_VERSION",
    "ProtocolError",
    "error_response",
    "parse_request",
    "render",
    "SERVE_TAG",
    "TenantSession",
    "derive_tenant_seed",
    "BankStore",
    "ShardWorker",
    "TuningService",
    "shard_for",
    "TenantSpec",
    "latency_verdicts",
    "run_bench",
    "sample_tenants",
    "write_serve_report",
]
