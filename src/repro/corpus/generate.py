"""Deterministic, seeded corpus generation over the diy edge vocabulary.

The corpus space is structured as *skeletons* × *decorations*:

* a **skeleton** is a cyclic communication pattern — ``t`` external edges
  (``Rfe``/``Fre``/``Coe``, one per thread, ``t`` ∈ 2–5) plus a *gap
  pattern* saying how many program-order edges (0, 1 or 2) sit between
  consecutive communication edges;
* a **decoration** picks the concrete program-order edges for each gap
  from the signature-compatible vocabulary (plain po, fences,
  dependencies, acquire/release);
* tests whose cycle contains a grace period additionally get an **RCU
  variant** with every non-grace-period thread wrapped in an
  ``rcu_read_lock()`` critical section.

Determinism is load-bearing: the stream for a given ``(seed, threads)``
is identical across processes and interpreter hash seeds (skeleton RNGs
are seeded from SHA-256, never from :func:`hash`), and a shorter run is
a strict prefix of a longer one — which is what makes sliced sweeps,
journal resume, and the frozen golden corpus possible.  Small decoration
spaces are enumerated exhaustively in seeded-shuffled order; large ones
are sampled without global materialisation.  Duplicates are rejected
both by canonical cycle (rotations describe the same test) and by
canonical AST digest (different cycles can realise the same program).

Every emitted test parses back from its own litmus text, round-trips
through the writer, and is lint-clean (no error-severity findings) —
properties locked by ``tests/test_diy_properties.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import count_errors
from repro.analysis.litmuslint import lint_program
from repro.diy.edges import ANY, EDGES, Edge
from repro.diy.generator import CycleError, canonical_cycle, generate
from repro.events import RCU_LOCK, RCU_UNLOCK, SYNC_RCU
from repro.litmus.ast import Fence, Program, Thread
from repro.litmus.parser import parse_litmus
from repro.litmus.writer import program_digest, write_litmus
from repro.obs import core as _obs

#: Communication (external) edges, in canonical order.
COMM_EDGES: Tuple[str, ...] = ("Coe", "Fre", "Rfe")

#: Internal (program-order) edges, sorted for deterministic iteration.
INTERNAL_EDGES: Tuple[str, ...] = tuple(
    sorted(name for name, e in EDGES.items() if not e.external)
)

#: Decoration spaces at or below this size are enumerated exhaustively
#: (in a seeded shuffle); larger spaces are sampled index-by-index.
EXHAUSTIVE_LIMIT = 2048

#: A sampled (non-exhaustive) skeleton retires after this many draws, so
#: generation terminates even when the requested target is unreachable.
SAMPLE_CAP = 4096

#: Failed draws (CycleError, duplicate, lint reject) tolerated per
#: skeleton visit before moving on to the next skeleton in the wave.
ATTEMPTS_PER_VISIT = 8

#: Classic family names for well-known communication skeletons (keyed by
#: the canonical rotation); everything else is named by its skeleton.
NAMED_FAMILIES: Dict[Tuple[str, ...], str] = {
    ("Fre", "Rfe"): "MP",
    ("Fre", "Fre"): "SB",
    ("Rfe", "Rfe"): "LB",
    ("Coe", "Fre"): "R",
    ("Coe", "Rfe"): "S",
    ("Coe", "Coe"): "2+2W",
    ("Fre", "Rfe", "Rfe"): "WRC",
    ("Fre", "Fre", "Rfe"): "RWC",
    ("Coe", "Rfe", "Rfe"): "WWC",
    ("Fre", "Rfe", "Fre", "Rfe"): "IRIW",
}


def family_of(comm: Sequence[str]) -> str:
    """The family label for a communication skeleton."""
    key = canonical_cycle(comm)
    return NAMED_FAMILIES.get(key, "+".join(key))


@dataclass(frozen=True)
class CorpusTest:
    """One generated corpus member plus its provenance."""

    name: str
    family: str
    threads: int
    #: The realised cycle, in canonical rotation.
    edges: Tuple[str, ...]
    #: Threads wrapped in an RCU read-side critical section ('' base).
    rcu_wrapped: Tuple[int, ...]
    digest: str
    program: Program = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "threads": self.threads,
            "edges": list(self.edges),
            "rcu_wrapped": list(self.rcu_wrapped),
            "digest": self.digest,
            "litmus": write_litmus(self.program),
        }

    @staticmethod
    def from_json(row: dict) -> "CorpusTest":
        program = parse_litmus(row["litmus"])
        return CorpusTest(
            name=row["name"],
            family=row["family"],
            threads=int(row["threads"]),
            edges=tuple(row["edges"]),
            rcu_wrapped=tuple(row.get("rcu_wrapped", ())),
            digest=row["digest"],
            program=program,
        )


# -- decoration vocabulary ---------------------------------------------------


def _edge(name: str) -> Edge:
    return EDGES[name]


def _mid_kind(e1: Edge, e2: Edge) -> Optional[str]:
    """The (determined, consistent) kind of the node between two internal
    edges, or ``None`` when the pair cannot stand together."""
    kinds = {e1.tgt, e2.src} - {ANY}
    if len(kinds) != 1:
        return None  # undetermined (ANY/ANY) or contradictory (R vs W)
    kind = min(kinds)
    if not (e1.matches_tgt(kind) and e2.matches_src(kind)):
        return None
    annots = {e1.tgt_annot, e2.src_annot} - {None}
    if len(annots) > 1:
        return None
    return kind


#: choices for a gap of the given size between kinds (src, tgt).  A
#: choice is a tuple of edge names (length == gap size).
_SLOT_CACHE: Dict[Tuple[str, str, int], Tuple[Tuple[str, ...], ...]] = {}


def slot_choices(
    src_kind: str, tgt_kind: str, size: int
) -> Tuple[Tuple[str, ...], ...]:
    """Every decoration of a size-``size`` gap from a ``src_kind`` node
    to a ``tgt_kind`` node, in deterministic order."""
    key = (src_kind, tgt_kind, size)
    cached = _SLOT_CACHE.get(key)
    if cached is not None:
        return cached
    if size == 0:
        # A 0-gap means the comm edges share the node: kinds must agree.
        choices: Tuple[Tuple[str, ...], ...] = (
            ((),) if src_kind == tgt_kind else ()
        )
    elif size == 1:
        choices = tuple(
            (name,)
            for name in INTERNAL_EDGES
            if _edge(name).matches_src(src_kind)
            and _edge(name).matches_tgt(tgt_kind)
        )
    elif size == 2:
        pairs = []
        for first in INTERNAL_EDGES:
            e1 = _edge(first)
            if not e1.matches_src(src_kind):
                continue
            for second in INTERNAL_EDGES:
                e2 = _edge(second)
                if not e2.matches_tgt(tgt_kind):
                    continue
                if _mid_kind(e1, e2) is None:
                    continue
                pairs.append((first, second))
        choices = tuple(pairs)
    else:  # pragma: no cover - corpus uses gaps of 0..2
        raise ValueError(f"unsupported gap size {size}")
    _SLOT_CACHE[key] = choices
    return choices


# -- skeletons ---------------------------------------------------------------


@dataclass
class _Skeleton:
    comm: Tuple[str, ...]
    gaps: Tuple[int, ...]
    family: str
    #: per-gap choice lists (only gaps with at least one choice survive
    #: construction).
    choices: Tuple[Tuple[Tuple[str, ...], ...], ...]
    total: int
    rng: random.Random
    #: exhaustive mode: a seeded shuffle of every decoration index.
    order: Optional[List[int]] = None
    cursor: int = 0
    draws: int = 0

    def exhausted(self) -> bool:
        if self.order is not None:
            return self.cursor >= len(self.order)
        return self.draws >= SAMPLE_CAP

    def next_indices(self) -> Optional[Tuple[int, ...]]:
        """The next decoration (one choice index per gap), or ``None``."""
        if self.exhausted():
            return None
        if self.order is not None:
            flat = self.order[self.cursor]
            self.cursor += 1
            indices = []
            for options in self.choices:
                flat, pick = divmod(flat, len(options))
                indices.append(pick)
            return tuple(indices)
        self.draws += 1
        return tuple(
            self.rng.randrange(len(options)) for options in self.choices
        )

    def edges_for(self, indices: Tuple[int, ...]) -> List[str]:
        edges: List[str] = []
        for comm_edge, options, pick in zip(self.comm, self.choices, indices):
            edges.append(comm_edge)
            edges.extend(options[pick])
        return edges


def _skeleton_seed(seed: int, comm: Sequence[str], gaps: Sequence[int]) -> int:
    """A process-stable RNG seed for one skeleton (SHA-256, not hash())."""
    text = f"{seed}|{','.join(comm)}|{','.join(map(str, gaps))}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _canonical_comm_tuples(t: int) -> List[Tuple[str, ...]]:
    seen: Set[Tuple[str, ...]] = set()
    out: List[Tuple[str, ...]] = []
    for combo in itertools.product(COMM_EDGES, repeat=t):
        key = canonical_cycle(combo)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _build_skeleton(
    seed: int, comm: Tuple[str, ...], gaps: Tuple[int, ...]
) -> Optional[_Skeleton]:
    choice_lists: List[Tuple[Tuple[str, ...], ...]] = []
    t = len(comm)
    for i in range(t):
        src_kind = _edge(comm[i]).tgt
        tgt_kind = _edge(comm[(i + 1) % t]).src
        options = slot_choices(src_kind, tgt_kind, gaps[i])
        if not options:
            return None
        choice_lists.append(options)
    total = 1
    for options in choice_lists:
        total *= len(options)
    rng = random.Random(_skeleton_seed(seed, comm, gaps))
    order: Optional[List[int]] = None
    if total <= EXHAUSTIVE_LIMIT:
        order = list(range(total))
        rng.shuffle(order)
    return _Skeleton(
        comm=comm,
        gaps=gaps,
        family=family_of(comm),
        choices=tuple(choice_lists),
        total=total,
        rng=rng,
        order=order,
    )


def _skeletons(seed: int, threads: Sequence[int]) -> List[_Skeleton]:
    """Every skeleton, interleaved round-robin across thread counts so a
    corpus prefix is diverse rather than all-2-thread."""
    per_thread: List[List[_Skeleton]] = []
    for t in sorted(set(threads)):
        group: List[_Skeleton] = []
        for comm in _canonical_comm_tuples(t):
            for gaps in itertools.product((0, 1, 2), repeat=t):
                skeleton = _build_skeleton(seed, comm, gaps)
                if skeleton is not None:
                    group.append(skeleton)
        # Seeded shuffle within the thread count: which decorations lead
        # the stream varies with the seed, the *set* never does.
        random.Random(_skeleton_seed(seed, ("order",), (t,))).shuffle(group)
        per_thread.append(group)
    interleaved: List[_Skeleton] = []
    for batch in itertools.zip_longest(*per_thread):
        interleaved.extend(s for s in batch if s is not None)
    return interleaved


# -- RCU critical-section variants -------------------------------------------


def _has_sync(thread: Thread) -> bool:
    return any(
        isinstance(ins, Fence) and ins.tag == SYNC_RCU for ins in thread.body
    )


def rcu_wrap(program: Program) -> Tuple[Optional[Program], Tuple[int, ...]]:
    """Wrap every non-grace-period thread in an RCU read-side critical
    section.  Returns ``(None, ())`` when the program has no grace period
    (wrapping would be decoration without a counterpart) or no thread to
    wrap."""
    sync_threads = {
        tid for tid, th in enumerate(program.threads) if _has_sync(th)
    }
    if not sync_threads or len(sync_threads) == len(program.threads):
        return None, ()
    wrapped_tids = tuple(
        tid for tid in range(program.num_threads) if tid not in sync_threads
    )
    threads = tuple(
        Thread((Fence(RCU_LOCK),) + th.body + (Fence(RCU_UNLOCK),))
        if tid in wrapped_tids
        else th
        for tid, th in enumerate(program.threads)
    )
    wrapped = dataclasses.replace(
        program, threads=threads, name=program.name + "+rcu-lock"
    )
    return wrapped, wrapped_tids


# -- the generator -----------------------------------------------------------


def _lint_clean(program: Program) -> bool:
    return count_errors(lint_program(program)) == 0


def generate_corpus(
    seed: int = 0,
    target: Optional[int] = 10000,
    threads: Sequence[int] = (2, 3, 4, 5),
    lint: bool = True,
    rcu_variants: bool = True,
) -> Iterator[CorpusTest]:
    """Yield unique, lint-clean corpus tests deterministically.

    The stream for a given ``(seed, threads, lint, rcu_variants)`` is
    fixed: ``target`` only truncates it, so any shorter run is a prefix
    of a longer one (``tests/test_corpus_generate.py`` locks this,
    including across worker processes).
    """
    skeletons = _skeletons(seed, threads)
    seen_cycles: Set[Tuple[str, ...]] = set()
    seen_digests: Set[str] = set()
    emitted = 0

    def done() -> bool:
        return target is not None and emitted >= target

    active = skeletons
    while active and not done():
        survivors: List[_Skeleton] = []
        for skeleton in active:
            if done():
                break
            produced = False
            for _ in range(ATTEMPTS_PER_VISIT):
                indices = skeleton.next_indices()
                if indices is None:
                    break
                edges = skeleton.edges_for(indices)
                cycle = canonical_cycle(edges)
                if cycle in seen_cycles:
                    if _obs.ENABLED:
                        _obs.count("corpus.duplicate_cycles")
                    continue
                seen_cycles.add(cycle)
                try:
                    program = generate(list(cycle), name="+".join(cycle))
                except CycleError:
                    if _obs.ENABLED:
                        _obs.count("corpus.cycle_errors")
                    continue
                digest = program_digest(program)
                if digest in seen_digests:
                    if _obs.ENABLED:
                        _obs.count("corpus.alias_skips")
                    continue
                if lint and not _lint_clean(program):
                    if _obs.ENABLED:
                        _obs.count("corpus.lint_rejects")
                    continue
                seen_digests.add(digest)
                if _obs.ENABLED:
                    _obs.count("corpus.generated")
                yield CorpusTest(
                    name=program.name,
                    family=skeleton.family,
                    threads=program.num_threads,
                    edges=cycle,
                    rcu_wrapped=(),
                    digest=digest,
                    program=program,
                )
                emitted += 1
                produced = True
                if rcu_variants and not done():
                    variant, tids = rcu_wrap(program)
                    if variant is not None:
                        vdigest = program_digest(variant)
                        if vdigest not in seen_digests and (
                            not lint or _lint_clean(variant)
                        ):
                            seen_digests.add(vdigest)
                            if _obs.ENABLED:
                                _obs.count("corpus.rcu_variants")
                            yield CorpusTest(
                                name=variant.name,
                                family=skeleton.family,
                                threads=variant.num_threads,
                                edges=cycle,
                                rcu_wrapped=tids,
                                digest=vdigest,
                                program=variant,
                            )
                            emitted += 1
                break
            if not skeleton.exhausted():
                survivors.append(skeleton)
            elif not produced:
                if _obs.ENABLED:
                    _obs.count("corpus.skeletons_exhausted")
        active = survivors


def corpus_slice(
    seed: int,
    start: int,
    stop: int,
    threads: Sequence[int] = (2, 3, 4, 5),
    lint: bool = True,
    rcu_variants: bool = True,
) -> List[CorpusTest]:
    """Tests ``start..stop`` of the deterministic stream — the unit of
    cross-process generation (and of the determinism test: any process
    computing the same slice must produce identical bytes)."""
    return list(
        itertools.islice(
            generate_corpus(
                seed=seed,
                target=stop,
                threads=threads,
                lint=lint,
                rcu_variants=rcu_variants,
            ),
            start,
            stop,
        )
    )


def slice_digests(payload: Tuple[int, int, int]) -> List[str]:
    """Worker-pool form of :func:`corpus_slice`: ``(seed, start, stop)``
    in, the slice's digest list out.  Exists so the cross-process
    determinism test can ship the computation to
    :func:`repro.kernel.parallel.fault_tolerant_map` workers by name."""
    seed, start, stop = payload
    return [test.digest for test in corpus_slice(seed, start, stop)]
