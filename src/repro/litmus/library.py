"""The litmus-test corpus.

Contains every named test of the paper — the fifteen rows of Table 5 and
the tests of Figures 2, 4, 5, 6, 7, 9, 10, 11, 13 and 14 — plus the
classic variations used by the soundness experiments (Section 5).  Tests
are stored in the herd-style C litmus format and parsed on demand, so the
corpus also doubles as a parser test-bed.

``PAPER_VERDICTS`` records the Model and C11 columns of Table 5 verbatim;
the benchmarks compare our implementations against it.
"""

from __future__ import annotations

import difflib
from functools import lru_cache
from typing import Dict, List

from repro.litmus.ast import Program
from repro.litmus.parser import parse_litmus

#: Raw sources, keyed by test name.
SOURCES: Dict[str, str] = {}


def _register(source: str) -> None:
    program = parse_litmus(source)
    SOURCES[program.name] = source


# ---------------------------------------------------------------------------
# Table 5 tests
# ---------------------------------------------------------------------------

_register("""
C LB
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

# Figure 4: ring-buffer idiom (perf_output_put_handle()).
_register("""
C LB+ctrl+mb
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    if (r0) {
        WRITE_ONCE(*y, 1);
    }
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_mb();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

_register("""
C WRC
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, 1);
}
P2(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# Figure 14: allowed by the LK model, forbidden by C11.
_register("""
C WRC+wmb+acq
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P2(int *x, int *y)
{
    int r0 = smp_load_acquire(y);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# Figure 5: forbidden via A-cumulativity of release.
_register("""
C WRC+po-rel+rmb
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    smp_store_release(y, 1);
}
P2(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_rmb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 2:r0=1 /\\ 2:r1=0)
""")

_register("""
C SB
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# Figure 6: the wait-event/wakeup idiom.
_register("""
C SB+mbs
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

_register("""
C MP
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
""")

# Figures 1 and 2: the message-passing idiom.
_register("""
C MP+wmb+rmb
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_rmb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
""")

# Figure 7: resolving races between perf monitoring and CPU hotplug [90].
# Following the paper's walk-through: b is overwritten by c (fr), the
# release d is read by e (rf), f is overwritten by a (fr), and the two
# smp_mb fences close the pb cycle.
_register("""
C PeterZ
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    int r0 = READ_ONCE(*y);
}
P1(int *y, int *z)
{
    WRITE_ONCE(*y, 1);
    smp_store_release(z, 1);
}
P2(int *z, int *x)
{
    int r0 = READ_ONCE(*z);
    smp_mb();
    int r1 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# The same communication shape with all synchronisation removed.
_register("""
C PeterZ-No-Synchro
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    int r0 = READ_ONCE(*y);
}
P1(int *y, int *z)
{
    WRITE_ONCE(*y, 1);
    WRITE_ONCE(*z, 1);
}
P2(int *z, int *x)
{
    int r0 = READ_ONCE(*z);
    int r1 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# Figure 11: the deferred-free idiom; the reads are "swapped" with respect
# to RCU-MP, and unlike with fences the pattern remains forbidden.
_register("""
C RCU-deferred-free
{ x=0; y=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*y);
    rcu_read_unlock();
}
P1(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    synchronize_rcu();
    WRITE_ONCE(*y, 1);
}
exists (0:r0=0 /\\ 0:r1=1)
""")

# Figure 10: message passing with RCU read-side critical section.
_register("""
C RCU-MP
{ x=0; y=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*y);
    rcu_read_unlock();
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    synchronize_rcu();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 0:r1=0)
""")

_register("""
C RWC
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*y);
}
P2(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    int r0 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0 /\\ 2:r0=0)
""")

# Figure 13: forbidden by the LK model (smp_mb "restores SC"), allowed by
# C11's original seq_cst fences.
_register("""
C RWC+mbs
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    smp_mb();
    int r1 = READ_ONCE(*y);
}
P2(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    int r0 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0 /\\ 2:r0=0)
""")

# ---------------------------------------------------------------------------
# Other figures
# ---------------------------------------------------------------------------

# Figure 9: address dependency feeding an acquire (task_rq_lock() idiom).
# The pointer p initially points at z; P0 publishes &y.
_register("""
C MP+wmb+addr-acq
{ x=0; y=0; z=0; p=&z; }
P0(int *x, int **p, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*p, &y);
}
P1(int *x, int **p)
{
    int r0 = READ_ONCE(*p);
    int r1 = smp_load_acquire(*r0);
    int r2 = READ_ONCE(*x);
}
exists (1:r0=&y /\\ 1:r2=0)
""")

# Pointer publication *without* a read barrier: the read-read address
# dependency alone is not preserved (Alpha may reorder dependent loads),
# so the dereference can see the pre-initialisation value.
_register("""
C MP+wmb+addr
{ y=0; z=0; p=&z; }
P0(int **p, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_wmb();
    WRITE_ONCE(*p, &y);
}
P1(int **p)
{
    int r0 = READ_ONCE(*p);
    int r1 = READ_ONCE(*r0);
}
exists (1:r0=&y /\\ 1:r1=0)
""")

# ... but with an smp_read_barrier_depends the dependency is restored
# (strong-rrdep = rrdep+ & rb-dep).
_register("""
C MP+wmb+addr-rbdep
{ y=0; z=0; p=&z; }
P0(int **p, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_wmb();
    WRITE_ONCE(*p, &y);
}
P1(int **p)
{
    int r0 = READ_ONCE(*p);
    smp_read_barrier_depends();
    int r1 = READ_ONCE(*r0);
}
exists (1:r0=&y /\\ 1:r1=0)
""")

# rcu_dereference carries its own rb-dep (Table 4): same guarantee.
_register("""
C MP+wmb+rcu-deref
{ y=0; z=0; p=&z; }
P0(int **p, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_wmb();
    rcu_assign_pointer(*p, &y);
}
P1(int **p)
{
    int r0 = rcu_dereference(*p);
    int r1 = READ_ONCE(*r0);
}
exists (1:r0=&y /\\ 1:r1=0)
""")

# ---------------------------------------------------------------------------
# Variations used in the experiments (Section 5's systematic variations)
# ---------------------------------------------------------------------------

# Figure 4 with the fence removed: allowed (observed on ARMv7).
_register("""
C LB+ctrl
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    if (r0) {
        WRITE_ONCE(*y, 1);
    }
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

# Figure 4 with the dependency removed: allowed.
_register("""
C LB+po+mb
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_mb();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

# Load buffering with data dependencies on both sides: forbidden — the LK
# model "does not have out-of-thin-air values" (Section 7).
_register("""
C LB+datas
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, r0);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    WRITE_ONCE(*x, r0);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

_register("""
C MP+po-rel+acq
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_store_release(y, 1);
}
P1(int *x, int *y)
{
    int r0 = smp_load_acquire(y);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
""")

# Release into acquire chained through an internal read (rfi-rel-acq).
_register("""
C MP+po-rel+rfi-acq
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_store_release(y, 1);
}
P1(int *x, int *y, int *z)
{
    int r0 = READ_ONCE(*y);
    smp_store_release(z, r0);
    int r1 = smp_load_acquire(z);
    int r2 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=1 /\\ 1:r2=0)
""")

_register("""
C MP+mbs
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_mb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
""")

_register("""
C IRIW
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*y);
}
P2(int *y)
{
    WRITE_ONCE(*y, 1);
}
P3(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0 /\\ 3:r0=1 /\\ 3:r1=0)
""")

_register("""
C IRIW+mbs
{ x=0; y=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    smp_mb();
    int r1 = READ_ONCE(*y);
}
P2(int *y)
{
    WRITE_ONCE(*y, 1);
}
P3(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_mb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0 /\\ 3:r0=1 /\\ 3:r1=0)
""")

_register("""
C 2+2W
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*y, 2);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    WRITE_ONCE(*x, 2);
}
exists (x=1 /\\ y=1)
""")

# Write-propagation cycles are only forbidden when every non-rf link is
# covered by a *strong* fence (the pb axiom), so 2+2W stays allowed with
# smp_wmb — the model is deliberately weaker than Power here ...
_register("""
C 2+2W+wmbs
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 2);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_wmb();
    WRITE_ONCE(*x, 2);
}
exists (x=1 /\\ y=1)
""")

# ... while with smp_mb the pb axiom kicks in and the cycle is forbidden.
_register("""
C 2+2W+mbs
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    WRITE_ONCE(*y, 2);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    WRITE_ONCE(*x, 2);
}
exists (x=1 /\\ y=1)
""")

# S: write-to-write causality through a read.
_register("""
C S+wmb+data
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 2);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    WRITE_ONCE(*x, r0);
}
exists (1:r0=1 /\\ x=2)
""")

# ---------------------------------------------------------------------------
# Coherence (Scpv) and atomicity (At) tests
# ---------------------------------------------------------------------------

_register("""
C CoRR
{ x=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
}
P1(int *x)
{
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
""")

_register("""
C CoWW
{ x=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*x, 2);
}
exists (x=1)
""")

_register("""
C CoWR
{ x=0; }
P0(int *x)
{
    WRITE_ONCE(*x, 1);
    int r0 = READ_ONCE(*x);
}
P1(int *x)
{
    WRITE_ONCE(*x, 2);
}
exists (0:r0=0)
""")

_register("""
C CoRW
{ x=0; }
P0(int *x)
{
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*x, 1);
}
P1(int *x)
{
    WRITE_ONCE(*x, 2);
}
exists (0:r0=2 /\\ x=2)
""")

# Atomicity: two concurrent atomic increments cannot both read 0.
_register("""
C At-inc
{ x=0; }
P0(int *x)
{
    int r0 = xchg(x, 1);
}
P1(int *x)
{
    int r0 = xchg(x, 2);
}
exists (0:r0=0 /\\ 1:r0=0 /\\ x=1)
""")

# xchg_relaxed still provides atomicity (At does not depend on ordering).
_register("""
C At-relaxed
{ x=0; }
P0(int *x)
{
    int r0 = xchg_relaxed(x, 1);
}
P1(int *x)
{
    int r0 = xchg_relaxed(x, 2);
}
exists (0:r0=0 /\\ 1:r0=0 /\\ x=1)
""")

# xchg is bracketed by full fences: it orders like smp_mb (SB shape).
_register("""
C SB+xchgs
{ x=0; y=0; a=0; b=0; }
P0(int *x, int *y, int *a)
{
    WRITE_ONCE(*x, 1);
    int r1 = xchg(a, 1);
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y, int *b)
{
    WRITE_ONCE(*y, 1);
    int r1 = xchg(b, 1);
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# xchg_relaxed provides no ordering: the SB outcome stays allowed.
_register("""
C SB+xchg-relaxed
{ x=0; y=0; a=0; b=0; }
P0(int *x, int *y, int *a)
{
    WRITE_ONCE(*x, 1);
    int r1 = xchg_relaxed(a, 1);
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y, int *b)
{
    WRITE_ONCE(*y, 1);
    int r1 = xchg_relaxed(b, 1);
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# ---------------------------------------------------------------------------
# Locking, emulated per Section 7
# ---------------------------------------------------------------------------

# Mutual exclusion: both critical sections reading the other's write of 0
# while writing 1 is impossible.
_register("""
C lock-mutex
{ l=0; x=0; }
P0(int *l, int *x)
{
    spin_lock(l);
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*x, 1);
    spin_unlock(l);
}
P1(int *l, int *x)
{
    spin_lock(l);
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*x, 2);
    spin_unlock(l);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# Message passing through a lock hand-off: the lock starts held (l=1), so
# P1's spin_lock can only succeed by reading P0's releasing store; the
# release-acquire pair then forces P1 to see the data write.
_register("""
C MP+unlock-acq
{ l=1; x=0; }
P0(int *l, int *x)
{
    WRITE_ONCE(*x, 1);
    spin_unlock(l);
}
P1(int *l, int *x)
{
    spin_lock(l);
    int r0 = READ_ONCE(*x);
}
exists (1:r0=0)
""")

# Unlock-lock on different CPUs does not give full ordering (the paper's
# Table 2 cites a fix for code incorrectly relying on fully ordered
# lock-unlock pairs [64]): the SB shape across a lock stays allowed.
_register("""
C SB+unlock-lock
{ l=0; x=0; y=0; }
P0(int *l, int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    spin_lock(l);
    spin_unlock(l);
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# ---------------------------------------------------------------------------
# Additional RCU tests
# ---------------------------------------------------------------------------

# Two grace periods versus two critical sections: still forbidden
# (at least as many GPs as RSCSes in the cycle).
_register("""
C RCU-2GP-2RSCS
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, 1);
    rcu_read_unlock();
}
P1(int *y, int *z)
{
    int r0 = READ_ONCE(*y);
    synchronize_rcu();
    WRITE_ONCE(*z, 1);
}
P2(int *z, int *w)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*z);
    WRITE_ONCE(*w, 1);
    rcu_read_unlock();
}
P3(int *w, int *x)
{
    int r0 = READ_ONCE(*w);
    synchronize_rcu();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 1:r0=1 /\\ 2:r0=1 /\\ 3:r0=1)
""")

# One grace period versus two critical sections: allowed (fewer GPs than
# RSCSes in the cycle — the rule of thumb of Theorem 1).
_register("""
C RCU-1GP-2RSCS
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    WRITE_ONCE(*y, 1);
    rcu_read_unlock();
}
P1(int *y, int *z)
{
    int r0 = READ_ONCE(*y);
    synchronize_rcu();
    WRITE_ONCE(*z, 1);
}
P2(int *z, int *x)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*z);
    WRITE_ONCE(*x, 1);
    rcu_read_unlock();
}
exists (0:r0=1 /\\ 1:r0=1 /\\ 2:r0=1)
""")

# synchronize_rcu acts as a strong fence (gp is in strong-fence): the SB
# shape with one mb replaced by a grace period is forbidden.
_register("""
C SB+mb+sync
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    int r0 = READ_ONCE(*y);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    synchronize_rcu();
    int r0 = READ_ONCE(*x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# Nested read-side critical sections: only the outermost pair delimits the
# RSCS; the pattern of RCU-MP stays forbidden with nesting.
_register("""
C RCU-MP+nested
{ x=0; y=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    rcu_read_unlock();
    int r1 = READ_ONCE(*y);
    rcu_read_unlock();
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    synchronize_rcu();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 0:r1=0)
""")


# ---------------------------------------------------------------------------
# Classic shapes beyond Table 5 (ISA2, R, 3.2W, ...)
# ---------------------------------------------------------------------------

# ISA2: a release chain through a middleman thread.  The A-cumulativity of
# the releases links the whole chain (rfe? ; po-rel), so the stale read is
# forbidden...
_register("""
C ISA2+rel+rel+acq
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_store_release(y, 1);
}
P1(int *y, int *z)
{
    int r0 = READ_ONCE(*y);
    smp_store_release(z, 1);
}
P2(int *z, int *x)
{
    int r0 = smp_load_acquire(z);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# ... whereas a data dependency in the middle thread orders locally (ppo)
# but is not a cumulative link, so the chain does not propagate: allowed.
_register("""
C ISA2+rel+data+acq
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_store_release(y, 1);
}
P1(int *y, int *z)
{
    int r0 = READ_ONCE(*y);
    WRITE_ONCE(*z, r0);
}
P2(int *z, int *x)
{
    int r0 = smp_load_acquire(z);
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 2:r0=1 /\\ 2:r1=0)
""")

# R: a coherence edge against a from-read.
_register("""
C R
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 2);
    int r0 = READ_ONCE(*x);
}
exists (y=2 /\\ 1:r0=0)
""")

_register("""
C R+mbs
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 2);
    smp_mb();
    int r0 = READ_ONCE(*x);
}
exists (y=2 /\\ 1:r0=0)
""")

# 3.2W: a three-thread coherence cycle.
_register("""
C 3.2W
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    WRITE_ONCE(*y, 2);
}
P1(int *y, int *z)
{
    WRITE_ONCE(*y, 1);
    WRITE_ONCE(*z, 2);
}
P2(int *z, int *x)
{
    WRITE_ONCE(*z, 1);
    WRITE_ONCE(*x, 2);
}
exists (x=1 /\\ y=1 /\\ z=1)
""")

_register("""
C 3.2W+mbs
{ x=0; y=0; z=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_mb();
    WRITE_ONCE(*y, 2);
}
P1(int *y, int *z)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    WRITE_ONCE(*z, 2);
}
P2(int *z, int *x)
{
    WRITE_ONCE(*z, 1);
    smp_mb();
    WRITE_ONCE(*x, 2);
}
exists (x=1 /\\ y=1 /\\ z=1)
""")

# Load buffering protected by release/acquire on both sides.
_register("""
C LB+rels+acqs
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = smp_load_acquire(x);
    smp_store_release(y, 1);
}
P1(int *x, int *y)
{
    int r0 = smp_load_acquire(y);
    smp_store_release(x, 1);
}
exists (0:r0=1 /\\ 1:r0=1)
""")

# Store buffering is NOT forbidden by release/acquire (there is no
# write-to-read ordering in either po-rel or acq-po).
_register("""
C SB+rel+acq
{ x=0; y=0; }
P0(int *x, int *y)
{
    smp_store_release(x, 1);
    int r0 = smp_load_acquire(y);
}
P1(int *x, int *y)
{
    smp_store_release(y, 1);
    int r0 = smp_load_acquire(x);
}
exists (0:r0=0 /\\ 1:r0=0)
""")

# Control dependencies order reads against WRITES only (rwdep is
# restricted to R x W): a ctrl-protected read is still reorderable.
_register("""
C MP+wmb+ctrl
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    int r1 = 0;
    if (r0 == 1) {
        r1 = READ_ONCE(*x);
    }
}
exists (1:r0=1 /\\ 1:r1=0)
""")

# rrdep includes dep;rfi: a pointer bounced through a private location
# still forms a (strong, given rb-dep) read-read dependency.
_register("""
C MP+wmb+rfi-rbdep
{ y=0; z=0; p=&z; q=&z; }
P0(int **p, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_wmb();
    WRITE_ONCE(*p, &y);
}
P1(int **p, int **q)
{
    int r0 = READ_ONCE(*p);
    WRITE_ONCE(*q, r0);
    int r1 = READ_ONCE(*q);
    smp_read_barrier_depends();
    int r2 = READ_ONCE(*r1);
}
exists (1:r0=&y /\\ 1:r1=&y /\\ 1:r2=0)
""")

# An smp_mb is NOT a substitute for the grace period: with an unordered
# reader (no fences, no RSCS), the updater's full fence cannot forbid the
# MP outcome.
_register("""
C RCU-MP+mb
{ x=0; y=0; }
P0(int *x, int *y)
{
    rcu_read_lock();
    int r0 = READ_ONCE(*x);
    int r1 = READ_ONCE(*y);
    rcu_read_unlock();
}
P1(int *x, int *y)
{
    WRITE_ONCE(*y, 1);
    smp_mb();
    WRITE_ONCE(*x, 1);
}
exists (0:r0=1 /\\ 0:r1=0)
""")


#: The rows of Table 5, in the paper's order.
TABLE5: List[str] = [
    "LB",
    "LB+ctrl+mb",
    "WRC",
    "WRC+wmb+acq",
    "WRC+po-rel+rmb",
    "SB",
    "SB+mbs",
    "MP",
    "MP+wmb+rmb",
    "PeterZ-No-Synchro",
    "PeterZ",
    "RCU-deferred-free",
    "RCU-MP",
    "RWC",
    "RWC+mbs",
]

#: Table 5's "Model" and "C11" columns, verbatim from the paper.  ``None``
#: marks the dashes (RCU tests have no C11 counterpart).
PAPER_VERDICTS: Dict[str, Dict[str, object]] = {
    "LB": {"LK": "Allow", "C11": "Allow"},
    "LB+ctrl+mb": {"LK": "Forbid", "C11": "Allow"},
    "WRC": {"LK": "Allow", "C11": "Allow"},
    "WRC+wmb+acq": {"LK": "Allow", "C11": "Forbid"},
    "WRC+po-rel+rmb": {"LK": "Forbid", "C11": "Forbid"},
    "SB": {"LK": "Allow", "C11": "Allow"},
    "SB+mbs": {"LK": "Forbid", "C11": "Forbid"},
    "MP": {"LK": "Allow", "C11": "Allow"},
    "MP+wmb+rmb": {"LK": "Forbid", "C11": "Forbid"},
    "PeterZ-No-Synchro": {"LK": "Allow", "C11": "Allow"},
    "PeterZ": {"LK": "Forbid", "C11": "Allow"},
    "RCU-deferred-free": {"LK": "Forbid", "C11": None},
    "RCU-MP": {"LK": "Forbid", "C11": None},
    "RWC": {"LK": "Allow", "C11": "Allow"},
    "RWC+mbs": {"LK": "Forbid", "C11": "Allow"},
}

#: Expected LK verdicts for the non-Table-5 corpus (derived from the
#: paper's prose and the model's definitions; checked by the test suite).
EXTRA_VERDICTS: Dict[str, str] = {
    "MP+wmb+addr-acq": "Forbid",  # Figure 9
    "MP+wmb+addr": "Allow",       # Alpha may reorder dependent reads
    "MP+wmb+addr-rbdep": "Forbid",
    "MP+wmb+rcu-deref": "Forbid",
    "LB+ctrl": "Allow",           # Figure 4 with the fence removed
    "LB+po+mb": "Allow",          # Figure 4 with the dependency removed
    "LB+datas": "Forbid",         # no out-of-thin-air (Section 7)
    "MP+po-rel+acq": "Forbid",
    "MP+po-rel+rfi-acq": "Forbid",
    "MP+mbs": "Forbid",
    "IRIW": "Allow",
    "IRIW+mbs": "Forbid",
    "2+2W": "Allow",
    "2+2W+wmbs": "Allow",
    "2+2W+mbs": "Forbid",
    "S+wmb+data": "Forbid",
    "CoRR": "Forbid",
    "CoWW": "Forbid",
    "CoWR": "Forbid",
    "CoRW": "Forbid",
    "At-inc": "Forbid",
    "At-relaxed": "Forbid",
    "SB+xchgs": "Forbid",
    "SB+xchg-relaxed": "Allow",
    "lock-mutex": "Forbid",
    "MP+unlock-acq": "Forbid",
    "SB+unlock-lock": "Allow",
    "RCU-2GP-2RSCS": "Forbid",
    "RCU-1GP-2RSCS": "Allow",
    "SB+mb+sync": "Forbid",
    "RCU-MP+nested": "Forbid",
    "ISA2+rel+rel+acq": "Forbid",
    "ISA2+rel+data+acq": "Allow",  # deps are local, not cumulative links
    "R": "Allow",
    "R+mbs": "Forbid",
    "3.2W": "Allow",
    "3.2W+mbs": "Forbid",
    "LB+rels+acqs": "Forbid",
    "SB+rel+acq": "Allow",
    "MP+wmb+ctrl": "Allow",  # ctrl orders reads against writes only
    "MP+wmb+rfi-rbdep": "Forbid",
    "RCU-MP+mb": "Allow",  # mb is no substitute for a grace period
}


@lru_cache(maxsize=None)
def get(name: str) -> Program:
    """The named test, parsed.

    An unknown name raises :class:`KeyError` with close-match suggestions
    (``get("MP+wmb+rnb")`` suggests ``MP+wmb+rmb``) rather than dumping
    the whole catalogue.
    """
    try:
        source = SOURCES[name]
    except KeyError:
        close = difflib.get_close_matches(name, SOURCES, n=3, cutoff=0.5)
        if close:
            hint = f"did you mean {' or '.join(repr(c) for c in close)}?"
        else:
            hint = f"see all_names() for the {len(SOURCES)} known tests"
        raise KeyError(f"unknown litmus test {name!r}; {hint}") from None
    return parse_litmus(source)


def all_names() -> List[str]:
    return sorted(SOURCES)


def all_tests() -> List[Program]:
    return [get(name) for name in all_names()]
