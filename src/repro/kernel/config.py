"""Runtime configuration of the execution kernel: one switch.

The kernel runs in exactly one of two configurations:

* **production** (the default) — bitset relations (an event index plus
  adjacency rows, :mod:`repro.kernel.bitrel`), incremental per-trace
  checking with coherence pruning (:mod:`repro.kernel.skeleton`), cat
  checks executed by the relational bytecode VM (:mod:`repro.kernel.vm`),
  and condition-directed enumeration for verdict-only runs of
  ``exists``/``~exists`` tests (:func:`repro.herd.run_litmus_many`);
* **oracle** (``REPRO_ORACLE=1``, or :func:`use_oracle`) — the small
  reference path: frozenset-of-pairs relations (no rows are ever built),
  naive enumerate-then-filter over the full candidate stream, and the
  statement-walking cat evaluator of :mod:`repro.cat.eval`.

A :class:`~repro.relations.Relation` takes its representation from the
configuration current when it is built, and keeps it.

The oracle is the executable specification of production: verdicts,
witness counts and final-state sets are identical under both (see
``tests/test_kernel_equiv.py`` and the oracle CI lane, which runs the
whole tier-1 suite with ``REPRO_ORACLE=1``).

The environment is re-read on every query (with a last-value parse cache,
so the hot :class:`~repro.relations.Relation` constructor pays one dict
lookup and one comparison): tests can toggle the configuration per case
with ``monkeypatch.setenv`` and no subprocess.  Programmatic settings
(:func:`set_oracle` / :func:`use_oracle`) are process-local *overrides*
that take precedence over the environment until cleared.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

_FALSY = ("", "0", "false", "no", "off")

#: Programmatic override; ``None`` means "defer to the environment".
_override: Optional[bool] = None

#: Last-raw-value parse cache: (raw env string or None, parsed value).
_env_cache = ("\0unset", False)


def _env_oracle() -> bool:
    global _env_cache
    raw = os.environ.get("REPRO_ORACLE")
    cached_raw, cached_value = _env_cache
    if raw == cached_raw:
        return cached_value
    value = raw is not None and raw.strip().lower() not in _FALSY
    _env_cache = (raw, value)
    return value


def oracle() -> bool:
    """True when the kernel runs the reference oracle configuration."""
    if _override is not None:
        return _override
    return _env_oracle()


def set_oracle(enabled: Optional[bool]) -> None:
    """Set a process-local override; ``None`` defers to the environment."""
    global _override
    _override = None if enabled is None else bool(enabled)


@contextmanager
def use_oracle(enabled: bool = True):
    """Temporarily select the oracle (or, with ``False``, production)."""
    previous = _override
    set_oracle(enabled)
    try:
        yield
    finally:
        set_oracle(previous)
