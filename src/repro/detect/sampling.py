"""Sampled use-free detection: bounded-work triage for trace corpora.

Full detection pays the happens-before closure build on *every* trace,
which dominates per-trace cost even after the fast-query work of PRs
1–5 (on the stock apps the closure is ~90% of the analysis wall time).
For corpus-scale throughput that cost is only worth paying on the few
traces that actually race — the job of this module is to decide, under
a fixed per-trace budget, *whether a trace deserves full detection*.

The sampler draws a seeded random sample of (use, free) pairs from the
columnar :class:`~repro.detect.accesses.AccessIndex` per-address maps
and pushes each sampled pair through three **no-closure screens** on
raw trace columns:

* **same-task** — ordered by program order (the detector's own
  pre-filter);
* **lockset** — protected by a common lock (Section 3.2), honoured
  exactly when the wrapped :class:`DetectorOptions` enable it;
* **causal birth chain** — a sound *under-approximation* of
  happens-before built from program order plus task-birth edges
  (``fork -> begin``, ``send -> begin``): walking one op's task-birth
  chain and landing in the other op's task after that op proves the
  pair ordered.  The walk is bounded by ``chain_depth`` and never
  builds a closure.

Every screen only ever *discards* pairs the full model provably orders
or filters, so a screened-out pair can never be a race the batch
detector would report: the surviving *suspects* over-approximate the
sampled racy pairs, and a trace is **flagged** exactly when a suspect
survives.  Recall is therefore limited only by the sampling budget
(a racy pair that is sampled is always a suspect); screen quality
affects precision alone.

With ``confirm=True`` the sampler additionally builds happens-before
*lazily* — only when suspects exist — answers them in one budgeted
:meth:`~repro.hb.graph.HappensBefore.concurrent_pairs` batch, and
applies the same-looper heuristics the batch detector applies.  A
confirmed pair is by construction a live witness of full detection, so
**sampled races are always a subset of full-detection races** (the
property pinned by ``tests/test_property_sampling.py``).

See ``docs/sampling.md`` for budget semantics and the recorded
precision/recall-vs-budget curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from ..hb import HappensBefore, QueryBudget, build_happens_before
from ..trace import Address, OpKind, TaskKind, Trace
from .accesses import AccessIndex, PointerWrite, Use, extract_accesses
from .heuristics import (
    free_has_intra_event_realloc,
    use_has_intra_event_alloc,
    use_is_guarded,
)
from .report import RaceReport, RaceSiteKey, UseFreeRace
from .usefree import DetectorOptions

#: default per-trace allowance of sampled pair inspections
DEFAULT_BUDGET = 512

#: default bound on the causal-birth-chain walk
DEFAULT_CHAIN_DEPTH = 64


@dataclass(frozen=True)
class SamplerOptions:
    """Knobs of the sampled detector.

    ``budget`` caps how many (use, free) pairs one trace may inspect;
    when the population fits the budget the sample is exhaustive,
    otherwise ``seed`` drives a deterministic ``random.Random`` draw.
    ``confirm`` selects the lazy-HB confirmation pass (triage leaves it
    off — escalation re-runs full detection anyway).  ``detector``
    carries the wrapped full-detection options so the screens honour
    the same lockset/heuristic switches.
    """

    budget: int = DEFAULT_BUDGET
    seed: int = 0
    confirm: bool = False
    chain_depth: int = DEFAULT_CHAIN_DEPTH
    detector: DetectorOptions = DetectorOptions()


@dataclass
class SampleProfile:
    """Counters of one sampled-detection run (``repro stats`` section
    ``sampling``; field names are the JSON schema)."""

    budget: int = 0
    seed: int = 0
    #: size of the full (use, free) pair population
    pairs_population: int = 0
    #: pairs actually drawn (== population when exhaustive)
    pairs_sampled: int = 0
    #: True when every population pair was inspected
    exhaustive: bool = False
    screened_same_task: int = 0
    screened_lockset: int = 0
    #: pairs the causal-birth-chain under-approximation proved ordered
    screened_order: int = 0
    #: sampled pairs surviving every screen
    suspects: int = 0
    #: 1 when the confirm pass ran over a happens-before relation
    #: (built here, or handed in prebuilt)
    hb_built: int = 0
    #: suspects answered through the budgeted concurrent_pairs batch
    pairs_queried: int = 0
    #: confirmed-concurrent witnesses surviving the heuristics
    confirmed: int = 0
    #: confirmed-concurrent witnesses pruned by a heuristic
    heuristic_filtered: int = 0
    #: the triage verdict: does this trace deserve full detection?
    flagged: bool = False

    def format(self) -> str:
        lines = ["sampling profile:"]
        lines.append(f"  budget               {self.budget:>12}")
        lines.append(f"  seed                 {self.seed:>12}")
        lines.append(f"  pair population      {self.pairs_population:>12}")
        sampled = f"{self.pairs_sampled}" + (
            " (exhaustive)" if self.exhaustive else ""
        )
        lines.append(f"  pairs sampled        {sampled:>12}")
        lines.append(f"  screened same-task   {self.screened_same_task:>12}")
        lines.append(f"  screened lockset     {self.screened_lockset:>12}")
        lines.append(f"  screened ordered     {self.screened_order:>12}")
        lines.append(f"  suspects             {self.suspects:>12}")
        if self.hb_built:
            lines.append(f"  pairs queried        {self.pairs_queried:>12}")
            lines.append(f"  confirmed            {self.confirmed:>12}")
            lines.append(
                f"  heuristic filtered   {self.heuristic_filtered:>12}"
            )
        lines.append(f"  flagged              {str(self.flagged):>12}")
        return "\n".join(lines)


@dataclass
class SampledResult:
    """What one sampled run produced."""

    trace: Trace
    options: SamplerOptions
    profile: SampleProfile
    #: sampled pairs that survived every screen
    suspects: List[Tuple[Use, PointerWrite, Address]] = dataclass_field(
        default_factory=list
    )
    #: confirmed races (``confirm=True`` only); always a subset of the
    #: full detector's reports for the same trace and options
    races: List[RaceReport] = dataclass_field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return self.profile.flagged


class _BirthChains:
    """Task-birth edges recovered in one linear pass over the rare
    FORK/SEND kinds: ``births[task] = (parent_task, birth_op_index)``.

    A task born more than once (which the runtime never produces) is
    dropped from the map — the screen then simply fails to prove
    ordering, which is the sound direction.
    """

    _BIRTH_KINDS = (OpKind.FORK, OpKind.SEND, OpKind.SEND_AT_FRONT)

    def __init__(self, trace: Trace, depth: int) -> None:
        self.depth = depth
        births: Dict[str, Tuple[str, int]] = {}
        ambiguous = set()
        for i in trace.store.indices_of(*self._BIRTH_KINDS):
            op = trace[i]
            child = op.child if op.kind is OpKind.FORK else op.event
            if child in births or child in ambiguous:
                ambiguous.add(child)
                births.pop(child, None)
                continue
            births[child] = (op.task, i)
        self.births = births

    def ordered(self, i: int, task_i: str, j: int, task_j: str) -> bool:
        """True only when op ``i`` provably happens-before op ``j``.

        Walks ``task_j``'s birth chain: each birth op happens-before
        every op of the task it creates (fork/send -> begin -> program
        order), so landing in ``task_i`` at a position after ``i``
        proves ``i < j`` by transitivity.  Returning False proves
        nothing — the under-approximation direction.
        """
        if task_i == task_j:
            return i < j
        current = task_j
        for _ in range(self.depth):
            birth = self.births.get(current)
            if birth is None:
                return False
            parent, birth_index = birth
            if parent == task_i:
                return i < birth_index
            current = parent
        return False


def _same_looper_events(trace: Trace, task_a: str, task_b: str) -> bool:
    tasks = trace.tasks
    info_a, info_b = tasks.get(task_a), tasks.get(task_b)
    return (
        info_a is not None
        and info_b is not None
        and info_a.task_kind is TaskKind.EVENT
        and info_b.task_kind is TaskKind.EVENT
        and info_a.looper is not None
        and info_a.looper == info_b.looper
    )


class SampledDetector:
    """See the module docstring."""

    def __init__(
        self,
        trace: Trace,
        options: Optional[SamplerOptions] = None,
        accesses: Optional[AccessIndex] = None,
        hb: Optional[HappensBefore] = None,
    ) -> None:
        self.trace = trace
        self.options = options or SamplerOptions()
        self._accesses = accesses
        #: a prebuilt relation under ``options.detector.model`` for the
        #: confirm pass (as :class:`UseFreeDetector` accepts); built
        #: lazily when absent
        self._hb = hb

    @property
    def accesses(self) -> AccessIndex:
        if self._accesses is None:
            self._accesses = extract_accesses(self.trace)
        return self._accesses

    def detect(self) -> SampledResult:
        options = self.options
        accesses = self.accesses
        profile = SampleProfile(budget=options.budget, seed=options.seed)
        result = SampledResult(
            trace=self.trace, options=options, profile=profile
        )

        # The pair population, in the deterministic order the batch
        # detector's stage 1 enumerates it (address by first free, then
        # use order, then free order).
        population: List[Tuple[Use, PointerWrite, Address]] = []
        uses_by_address = accesses.uses_by_address()
        for address, frees in accesses.frees_by_address().items():
            uses = uses_by_address.get(address)
            if not uses:
                continue
            for use in uses:
                for free in frees:
                    population.append((use, free, address))
        profile.pairs_population = len(population)

        if len(population) <= options.budget:
            sampled = population
            profile.exhaustive = True
        else:
            rng = random.Random(options.seed)
            sampled = rng.sample(population, options.budget)
        profile.pairs_sampled = len(sampled)

        chains = _BirthChains(self.trace, options.chain_depth)
        detector_options = options.detector
        suspects = result.suspects
        for use, free, address in sampled:
            if use.task == free.task:
                profile.screened_same_task += 1
                continue
            if detector_options.lockset_filter and (
                accesses.lockset(use.read_index)
                & accesses.lockset(free.index)
            ):
                profile.screened_lockset += 1
                continue
            if chains.ordered(
                use.read_index, use.task, free.index, free.task
            ) or chains.ordered(
                free.index, free.task, use.read_index, use.task
            ):
                profile.screened_order += 1
                continue
            suspects.append((use, free, address))
        profile.suspects = len(suspects)

        if options.confirm and suspects:
            self._confirm(result)
        profile.flagged = (
            bool(result.races) if options.confirm else bool(suspects)
        )
        return result

    def _confirm(self, result: SampledResult) -> None:
        """The lazy-HB confirmation pass: the batch detector's stages
        2–3 over the suspects alone, so every emitted race maps onto a
        live witness of full detection."""
        options = self.options.detector
        profile = result.profile
        accesses = self.accesses
        hb = self._hb
        if hb is None:
            hb = self._hb = build_happens_before(
                self.trace,
                options.model,
                fast_queries=options.fast_queries,
                memo_capacity=options.memo_capacity,
            )
        profile.hb_built = 1
        budget = QueryBudget(limit=len(result.suspects))
        verdicts = hb.concurrent_pairs(
            ((use.read_index, free.index) for use, free, _ in result.suspects),
            budget=budget,
        )
        profile.pairs_queried = budget.spent
        by_key: Dict[RaceSiteKey, RaceReport] = {}
        for (use, free, address), concurrent in zip(result.suspects, verdicts):
            if not concurrent:
                continue
            if _same_looper_events(self.trace, use.task, free.task):
                if options.if_guard and use_is_guarded(accesses, use):
                    profile.heuristic_filtered += 1
                    continue
                if options.intra_event_allocation and (
                    free_has_intra_event_realloc(accesses, free)
                    or use_has_intra_event_alloc(accesses, use)
                ):
                    profile.heuristic_filtered += 1
                    continue
            race = UseFreeRace(use=use, free=free, address=address)
            report = by_key.get(race.key)
            if report is None:
                report = by_key[race.key] = RaceReport(key=race.key)
            report.witnesses.append(race)
            profile.confirmed += 1
        result.races = sorted(by_key.values(), key=lambda r: str(r.key))


def detect_sampled(
    trace: Trace,
    options: Optional[SamplerOptions] = None,
    accesses: Optional[AccessIndex] = None,
    hb: Optional[HappensBefore] = None,
) -> SampledResult:
    """Convenience one-shot entry point."""
    return SampledDetector(trace, options, accesses, hb).detect()
