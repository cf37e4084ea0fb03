"""Per-architecture specifications.

Each :class:`ArchSpec` bundles what the Linux kernel's per-architecture
headers provide (Section 3.2.1 of the paper: "our LK model reflects only
the ordering provided by the hardware", with the kernel compensating in
architecture-specific ways):

* the *compilation* of each LK primitive into machine-level events —
  which fence instruction ``smp_mb()`` becomes, whether
  ``smp_load_acquire`` is a plain load (x86), a load followed by a
  lightweight fence (Power), or a special instruction (ARMv8 ``ldar``);
* the *operational reordering rules* used by the klitmus-substitute
  simulator: which pairs of accesses may complete out of program order,
  and what each fence blocks.

Architecture-level fence tags (``sync``, ``lwsync``, ``dmb``, ...) are the
ones the axiomatic cat models in ``repro/cat/models`` refer to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.events import READ, WRITE

# Machine-level fence tags.
MFENCE = "mfence"
SYNC = "sync"
LWSYNC = "lwsync"
ISYNC = "isync"
DMB = "dmb"
DMB_LD = "dmb-ld"
DMB_ST = "dmb-st"
ALPHA_MB = "alpha-mb"
ALPHA_WMB = "alpha-wmb"

# Machine-level access tags.
PLAIN = "plain"
LDAR = "ldar"  # ARMv8 load-acquire
STLR = "stlr"  # ARMv8 store-release


@dataclass(frozen=True)
class FenceRule:
    """What a fence blocks, operationally.

    ``blocks`` is a set of (earlier_kind, later_kind) pairs — e.g.
    ``{("W", "W")}`` for a store-store barrier — meaning an access of the
    later kind may not complete before an access of the earlier kind on
    the other side of the fence.  ``drains`` marks fences that flush the
    store buffer when they complete (full barriers).
    """

    blocks: FrozenSet[Tuple[str, str]]
    drains: bool = False


_ALL_PAIRS = frozenset(
    {(a, b) for a in (READ, WRITE) for b in (READ, WRITE)}
)
_FULL = FenceRule(_ALL_PAIRS, drains=True)
_STORE_STORE = FenceRule(frozenset({(WRITE, WRITE)}))
_LOAD_ANY = FenceRule(frozenset({(READ, READ), (READ, WRITE)}))
#: lwsync: everything except W -> R.
_LWSYNC = FenceRule(
    frozenset({(READ, READ), (READ, WRITE), (WRITE, WRITE)}), drains=True
)


@dataclass(frozen=True)
class ArchSpec:
    """One architecture: compilation map + operational rules."""

    name: str
    #: cat model name in repro/cat/models (None: use LKMM itself).
    cat_model: Optional[str]
    #: LK fence tag -> machine fence tag(s); missing = compiles to nothing.
    fence_map: Dict[str, Tuple[str, ...]]
    #: smp_load_acquire: (load tag, fences before, fences after).
    acquire_load: Tuple[str, Tuple[str, ...], Tuple[str, ...]]
    #: smp_store_release: (store tag, fences before, fences after).
    release_store: Tuple[str, Tuple[str, ...], Tuple[str, ...]]
    #: fences emitted before/after a full-barrier RMW (xchg).
    rmw_full_fences: Tuple[Tuple[str, ...], Tuple[str, ...]]
    #: fence semantics for the operational simulator.
    fence_rules: Dict[str, FenceRule]
    #: True if any two accesses to different locations may complete out of
    #: order (subject to dependencies and fences); False keeps accesses in
    #: order and leaves all weakness to the store buffer (TSO, SC).
    out_of_order: bool
    #: True if the machine has a store buffer (reads bypass it; a write is
    #: locally visible before it is globally visible).
    store_buffer: bool
    #: Reorder-window size for the operational simulator.
    window: int = 8
    #: Fences after an acquire RMW / before a release RMW.  ``None`` means
    #: "use the acquire-load / release-store fences"; ARMv8, whose acquire
    #: and release are dedicated instructions (ldaxr/stlxr), overrides
    #: these with barrier approximations.
    rmw_acquire_after: Optional[Tuple[str, ...]] = None
    rmw_release_before: Optional[Tuple[str, ...]] = None

    def fence_rule(self, tag: str) -> FenceRule:
        return self.fence_rules.get(tag, _FULL)

    def acquire_rmw_fences(self) -> Tuple[str, ...]:
        if self.rmw_acquire_after is not None:
            return self.rmw_acquire_after
        return self.acquire_load[2]

    def release_rmw_fences(self) -> Tuple[str, ...]:
        if self.rmw_release_before is not None:
            return self.rmw_release_before
        return self.release_store[1]


def _spec_sc() -> ArchSpec:
    return ArchSpec(
        name="SC",
        cat_model="sc",
        fence_map={"mb": (), "rmb": (), "wmb": (), "rb-dep": ()},
        acquire_load=(PLAIN, (), ()),
        release_store=(PLAIN, (), ()),
        rmw_full_fences=((), ()),
        fence_rules={},
        out_of_order=False,
        store_buffer=False,
        window=1,
    )


def _spec_x86() -> ArchSpec:
    # x86: TSO.  smp_mb() is mfence; smp_rmb/smp_wmb are compiler barriers;
    # acquire/release are plain accesses (TSO is strong enough); xchg is a
    # LOCK-prefixed instruction, i.e. a full barrier.
    return ArchSpec(
        name="x86",
        cat_model="tso",
        fence_map={"mb": (MFENCE,), "rmb": (), "wmb": (), "rb-dep": ()},
        acquire_load=(PLAIN, (), ()),
        release_store=(PLAIN, (), ()),
        rmw_full_fences=((MFENCE,), (MFENCE,)),
        fence_rules={MFENCE: _FULL},
        out_of_order=False,
        store_buffer=True,
        window=1,
    )


def _spec_power() -> ArchSpec:
    # Power: smp_mb() is sync; smp_rmb/smp_wmb are lwsync; acquire is a
    # load followed by lwsync and release an lwsync followed by the store
    # (arch/powerpc/include/asm/barrier.h); dependent reads are respected,
    # so smp_read_barrier_depends() is a no-op.
    return ArchSpec(
        name="Power8",
        cat_model="power",
        fence_map={
            "mb": (SYNC,),
            "rmb": (LWSYNC,),
            "wmb": (LWSYNC,),
            "rb-dep": (),
        },
        acquire_load=(PLAIN, (), (LWSYNC,)),
        release_store=(PLAIN, (LWSYNC,), ()),
        rmw_full_fences=((SYNC,), (SYNC,)),
        fence_rules={SYNC: _FULL, LWSYNC: _LWSYNC},
        out_of_order=True,
        store_buffer=True,
    )


def _spec_armv8() -> ArchSpec:
    # ARMv8: dmb ish / dmb ishld / dmb ishst, and dedicated load-acquire /
    # store-release instructions (ldar / stlr).
    return ArchSpec(
        name="ARMv8",
        cat_model="armv8",
        fence_map={
            "mb": (DMB,),
            "rmb": (DMB_LD,),
            "wmb": (DMB_ST,),
            "rb-dep": (),
        },
        acquire_load=(LDAR, (), ()),
        release_store=(STLR, (), ()),
        rmw_full_fences=((DMB,), (DMB,)),
        fence_rules={DMB: _FULL, DMB_LD: _LOAD_ANY, DMB_ST: _STORE_STORE},
        out_of_order=True,
        store_buffer=True,
        rmw_acquire_after=(DMB_LD,),
        rmw_release_before=(DMB,),
    )


def _spec_armv7() -> ArchSpec:
    # ARMv7 has no acquire/release instructions: smp_load_acquire is a
    # load followed by a full dmb, smp_store_release a dmb then the store
    # ("ARMv7 implements smp_load_acquire with a full fence for lack of
    # better means", Section 3.2.2).
    return ArchSpec(
        name="ARMv7",
        cat_model="armv7",
        fence_map={
            "mb": (DMB,),
            "rmb": (DMB,),
            "wmb": (DMB_ST,),
            "rb-dep": (),
        },
        acquire_load=(PLAIN, (), (DMB,)),
        release_store=(PLAIN, (DMB,), ()),
        rmw_full_fences=((DMB,), (DMB,)),
        fence_rules={DMB: _FULL, DMB_ST: _STORE_STORE},
        out_of_order=True,
        store_buffer=True,
    )


def _spec_alpha() -> ArchSpec:
    # Alpha: mb and wmb instructions; dependent reads are NOT respected,
    # so smp_read_barrier_depends() emits a full mb — the raison d'être of
    # that primitive (Section 3.2.2).
    return ArchSpec(
        name="Alpha",
        cat_model="alpha",
        fence_map={
            "mb": (ALPHA_MB,),
            "rmb": (ALPHA_MB,),
            "wmb": (ALPHA_WMB,),
            "rb-dep": (ALPHA_MB,),
        },
        acquire_load=(PLAIN, (), (ALPHA_MB,)),
        release_store=(PLAIN, (ALPHA_MB,), ()),
        rmw_full_fences=((ALPHA_MB,), (ALPHA_MB,)),
        fence_rules={ALPHA_MB: _FULL, ALPHA_WMB: _STORE_STORE},
        out_of_order=True,
        store_buffer=True,
    )


ARCHITECTURES: Dict[str, ArchSpec] = {
    spec.name: spec
    for spec in (
        _spec_sc(),
        _spec_x86(),
        _spec_power(),
        _spec_armv8(),
        _spec_armv7(),
        _spec_alpha(),
    )
}

#: The four testbeds of Table 5, in the paper's column order.
TABLE5_ARCHS: List[str] = ["Power8", "ARMv8", "ARMv7", "x86"]


def get_arch(name: str) -> ArchSpec:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(ARCHITECTURES)}"
        ) from None
