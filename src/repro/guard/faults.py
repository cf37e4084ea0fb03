"""Deterministic fault injection for exercising the recovery paths.

``REPRO_FAULT`` describes a seeded fault mix, e.g.::

    REPRO_FAULT="crash:0.05,hang:0.01,slow:0.1,seed=8"

* ``crash:p`` — the worker process exits abruptly (``os._exit``), the
  moral equivalent of an OOM kill; the parent sees a broken pool.
* ``hang:p`` — the task sleeps far past any per-task deadline, so the
  parent's hang detection has something to detect.
* ``slow:p`` — the task sleeps briefly; exercises deadline slack without
  requiring recovery.

Injection is *deterministic*: whether a task faults is a pure function of
``(seed, nonce)``, where the nonce encodes the task identity **and the
attempt number**.  The same seed therefore kills the same tasks on every
run (reproducible CI), while a retried task draws a fresh nonce and
eventually succeeds — which is exactly the property the fault-injection
lane asserts: the golden verdicts survive injected chaos via retries.

Faults fire only inside worker-pool processes
(:func:`mark_worker_process`, called by the pool initializer).  A crash
injected into the parent would take pytest down with it, which is chaos
of the unhelpful kind.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional

#: Sleep lengths for the non-fatal fault kinds.
HANG_SECONDS = 600.0
SLOW_SECONDS = 0.05

#: Exit status of an injected crash (distinguishable from real tracebacks).
CRASH_EXIT_CODE = 86

#: Set by the worker-pool initializer; faults never fire in the parent.
_IN_WORKER = False

#: Process-local override; ``None`` defers to the environment.
_spec_override: Optional["FaultSpec"] = None
_ENV_UNSET = "\0unset"
_env_cache = (_ENV_UNSET, None)


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``REPRO_FAULT`` value."""

    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    seed: int = 0

    def any(self) -> bool:
        return (self.crash + self.hang + self.slow) > 0.0


def parse_fault_spec(raw: Optional[str]) -> Optional[FaultSpec]:
    """Parse ``crash:0.05,hang:0.01,slow:0.1,seed=8`` (order-free).

    Returns ``None`` for empty input; raises ``ValueError`` on unknown
    keys or malformed numbers so a typo'd spec fails loudly rather than
    silently injecting nothing.
    """
    if raw is None or not raw.strip():
        return None
    fields = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        separator = ":" if ":" in part else "="
        key, _, value = part.partition(separator)
        key = key.strip().lower()
        value = value.strip()
        if key == "seed":
            fields["seed"] = int(value)
        elif key in ("crash", "hang", "slow"):
            probability = float(value)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"REPRO_FAULT {key} probability {probability} not in [0, 1]"
                )
            fields[key] = probability
        else:
            raise ValueError(f"REPRO_FAULT: unknown field {key!r}")
    return FaultSpec(**fields)


def raw_spec() -> Optional[str]:
    """The spec as a replicable string (for worker-pool initargs)."""
    if _spec_override is not None:
        return (
            f"crash:{_spec_override.crash},hang:{_spec_override.hang},"
            f"slow:{_spec_override.slow},seed={_spec_override.seed}"
        )
    return os.environ.get("REPRO_FAULT")


def active_spec() -> Optional[FaultSpec]:
    """The effective fault spec (override, else ``REPRO_FAULT``)."""
    global _env_cache
    if _spec_override is not None:
        return _spec_override
    raw = os.environ.get("REPRO_FAULT")
    cached_raw, cached_value = _env_cache
    if raw != cached_raw:
        _env_cache = (raw, parse_fault_spec(raw))
    return _env_cache[1]


def set_spec(spec: Optional[FaultSpec]) -> None:
    """Set a process-local spec override; ``None`` defers to the env."""
    global _spec_override
    _spec_override = spec


def mark_worker_process(raw: Optional[str]) -> None:
    """Called by the pool initializer: arm injection in this process."""
    global _IN_WORKER
    _IN_WORKER = True
    set_spec(parse_fault_spec(raw) if raw else None)


def in_worker() -> bool:
    return _IN_WORKER


def _unit(seed: int, nonce: str) -> float:
    """A deterministic draw in [0, 1) from (seed, nonce)."""
    digest = hashlib.sha256(f"{seed}|{nonce}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def maybe_inject(nonce: str) -> None:
    """Possibly inject a fault for task ``nonce`` (worker processes only)."""
    if not _IN_WORKER:
        return
    spec = active_spec()
    if spec is None or not spec.any():
        return
    draw = _unit(spec.seed, nonce)
    if draw < spec.crash:
        os._exit(CRASH_EXIT_CODE)
    if draw < spec.crash + spec.hang:
        time.sleep(HANG_SECONDS)
        return
    if draw < spec.crash + spec.hang + spec.slow:
        time.sleep(SLOW_SECONDS)
