"""The ``"vector"`` engine: numpy batch evaluation of the fast runner.

The fast engine (:mod:`repro.experiments.runner`) spends nearly all of
its time in per-interval Python work: two weeks of 60-second decision
intervals is ~20k iterations of ``scheduler.decide`` + buffer arithmetic
+ :class:`~repro.radio.beacon.BeaconSchedule` construction per run, and
that cell cost — not the orchestration — is the bottleneck of the paper
grid.  This module resolves the same semantics as whole-array kernels:

* **SNIP-AT / SNIP-OPT** are open-loop (their decisions depend only on
  the slot clock and the energy budget), so the full activation
  timeline — per-interval duty-cycle, budget-crossing clip, beacon-train
  anchors — is computed vectorized over all ``epochs x intervals`` at
  once, and every contact is resolved against it with O(rounds) numpy
  passes (a contact straddles at most ``length / period`` intervals).
* **SNIP-RH** is feedback-driven, but its state changes *only at probed
  contacts* and it can only activate inside rush-hour slots; the engine
  walks just the rush intervals, epoch by epoch (a ~6x smaller loop with
  no per-interval object allocation), and leaves an epoch as soon as its
  budget is spent.  It calls the real scheduler's EWMA hooks at probes
  and re-reads its threshold and config only after them; the scheduler
  rebuilds that config without re-validating it at every probe.  Quiet
  intervals (no contact to resolve) take a short path, and everything
  outside rush hours resolves in bulk.
* Any other scheduler type falls back — loudly — to the exact
  :class:`~repro.experiments.runner.FastRunner`.

Unprobed contacts, arrivals, per-epoch Φ, and buffer levels are
aggregated as array reductions; the probe search is pure numpy.  Both
kernels apply their probes through one FIFO buffer book
(:class:`_ProbeBook`); the open-loop kernels stream all of theirs
through it in one call.

Equivalence with ``"fast"`` is exact on the gated metrics: the engine
reproduces the fast runner's arithmetic (same ``TIME_EPSILON``
comparisons, same anchor/clip rules, probes accumulated in the same
order, the same buffer level ``rate * t - uploaded`` — see
:class:`~repro.node.buffer.FluidBuffer`), and the fast-vs-vector deltas
are exactly 0.0.  The tests assert this cell by cell (including the
seed-0 golden sweep and generated SNIP-RH cells), and CI runs the
paired agreement grid (``repro-snip run --spec
examples/vector_gate.json --gate TOL``) with two replicates.

Shared per-study inputs: most of what a cell needs does not depend on
its replicate seed, so each is built once per process and shared by
every cell that asks for the same values.  Every memo is bounded,
keyed by value (``typed``, so ``60`` and ``60.0`` build separately),
and hands out read-only arrays or tuples:

* the interval grid, on ``(epoch_length, decision_period, epochs)``,
  and its slot indices, on the profile's slot geometry (4 entries each);
* the SNIP-AT/OPT timeline ``(active, active_until, anchor, cycle, Φ)``,
  on the duty plan, ``Ton``, Φmax and the grid (2 entries: the study
  order runs the replicates of one timeline back to back, so two
  entries get all of its reuse);
* the SNIP-RH walk — the rush intervals, grouped per epoch as
  ``(epoch, ks, t0s, t1s)`` tuples — on the rush flags and the grid (2
  entries);
* the contact columns of each memoized trace, stored beside it (8
  traces), with the trace's placement on each grid it ran on (4 grids:
  where each contact's probe search starts, where an unprobed one is
  missed, the per-epoch arrivals).  A caller-supplied ``trace=`` is
  mutable, so its columns are built fresh for every run.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict, deque
from functools import lru_cache
from typing import Generator, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.schedulers.at import SnipAtScheduler
from ..core.schedulers.base import Scheduler
from ..core.schedulers.opt import SnipOptScheduler
from ..core.schedulers.rh import SnipRhScheduler
from ..errors import ConfigurationError
from ..mobility.contact import Contact, ContactTrace
from ..mobility.traces import TraceFileSource
from ..radio.link import LinkModel
from ..units import TIME_EPSILON
from .metrics import EpochMetrics, RunMetrics
from .registry import engine_factories
from .runner import FastRunner, RunResult, generate_trace
from .scenario import Scenario

__all__ = ["VectorEngine"]

#: Budget-exhaustion tolerance, mirroring
#: :attr:`repro.node.sensor.ProbingAccount.exhausted`.
_EXHAUSTED_EPSILON = 1e-12


def _probe_search_numpy(starts, ends, k0, active, active_until, anchor, cycle, t1):
    """Vectorized probe search: rounds of simultaneous interval steps.

    Returns ``(probe_k, probe_b)``: per contact, the resolving interval
    index and beacon time of its probe, or ``(-1, nan)`` when the
    contact goes unprobed.  Semantics mirror the fast runner's
    ``_resolve_one`` exactly: within each interval the contact is probed
    by the first beacon of the interval's anchored train inside
    ``[max(start, query), end)`` that precedes ``active_until``;
    otherwise it defers to the next interval iff it outlives this one,
    else it resolves as a miss.
    """
    n = starts.shape[0]
    n_intervals = t1.shape[0]
    probe_k = np.full(n, -1, np.int64)
    probe_b = np.full(n, np.nan)
    k = k0.astype(np.int64).copy()
    query = starts.copy()
    alive = k < n_intervals
    while alive.any():
        idxs = np.nonzero(alive)[0]
        ka = k[idxs]
        window = np.maximum(starts[idxs], query[idxs])
        act = active[ka]
        cyc = cycle[ka]
        phase = np.mod(anchor[ka], cyc)
        index = np.maximum(np.ceil((window - phase - TIME_EPSILON) / cyc), 0.0)
        beacon = np.where(window <= phase, phase, phase + index * cyc)
        probed = act & (beacon < ends[idxs]) & (beacon < active_until[ka])
        missed = ~probed & (ends[idxs] <= t1[ka] + TIME_EPSILON)
        deferred = ~probed & ~missed
        hits = idxs[probed]
        probe_k[hits] = ka[probed]
        probe_b[hits] = beacon[probed]
        cont = idxs[deferred]
        query[cont] = t1[ka[deferred]]
        k[cont] = ka[deferred] + 1
        alive[idxs[probed]] = False
        alive[idxs[missed]] = False
        alive[cont] = k[cont] < n_intervals
    return probe_k, probe_b


# ----------------------------------------------------------------------
# shared per-run bookkeeping
# ----------------------------------------------------------------------
#: One probe for :class:`_ProbeBook`: ``(contact end, beacon time,
#: resolving interval's end, epoch)``.
_ProbeRow = Tuple[float, float, float, int]


class _ProbeBook:
    """Sequential FIFO buffer/latency bookkeeping over probed contacts.

    Probes must be applied in resolution order (ascending contact index:
    contacts never overlap, and a deferred straddler always resolves
    before any later contact) so the fluid FIFO buffer drains exactly as
    in the fast runner.  The per-epoch accumulators are Python lists:
    one probe is a handful of scalar updates, which numpy element access
    would make several times slower for the same float results.

    The arithmetic is defined once, in the :func:`_fifo` coroutine,
    whose running state lives in local variables.  ``probe(row)`` sends
    it one :data:`_ProbeRow` and returns ``(probed_seconds, uploaded,
    uploaded_cumulative)``, for the SNIP-RH walk, which learns from each
    probe before it resolves the next; :meth:`probe_all` streams a whole
    batch through it in one call.
    """

    def __init__(self, rate: float, link: LinkModel, epochs: int) -> None:
        self.zeta = [0.0] * epochs
        self.uploaded = [0.0] * epochs
        self.probed_n = [0] * epochs
        self.delay_weight = [0.0] * epochs
        self.max_delay = [0.0] * epochs
        fifo = _fifo(
            rate, link.association_overhead, self.zeta, self.uploaded,
            self.probed_n, self.delay_weight, self.max_delay,
        )
        next(fifo)
        self.probe = fifo.send

    def probe_all(self, rows: Iterable[_ProbeRow]) -> None:
        """Apply every row in order."""
        deque(map(self.probe, rows), maxlen=0)


def _fifo(
    rate: float,
    overhead: float,
    zeta: List[float],
    uploaded_per_epoch: List[float],
    probed_n: List[int],
    delay_weight: List[float],
    max_delay: List[float],
) -> Generator[Tuple[float, float, float], _ProbeRow, None]:
    """The probe arithmetic behind :class:`_ProbeBook`.

    ``x if x > 0.0 else 0.0`` is ``max(0.0, x)`` bit for bit (-0.0 and
    NaN included), without the builtin call; ``window`` is
    :meth:`LinkModel.usable_window` written that way.
    """
    cumulative = 0.0
    result = None
    while True:
        end, beacon, interval_end, epoch = yield result
        probed_seconds = end - beacon
        window = probed_seconds - overhead
        window = window if window > 0.0 else 0.0
        level = rate * interval_end - cumulative
        level = level if level > 0.0 else 0.0
        uploaded = window if window < level else level
        zeta[epoch] += probed_seconds
        uploaded_per_epoch[epoch] += uploaded
        probed_n[epoch] += 1
        if uploaded > 0:
            oldest_creation = cumulative / rate
            mean_creation = (cumulative + uploaded / 2.0) / rate
            wait = end - mean_creation
            delay_weight[epoch] += uploaded * (wait if wait > 0.0 else 0.0)
            delay = end - oldest_creation
            if delay > max_delay[epoch]:
                max_delay[epoch] = delay
        cumulative = cumulative + uploaded
        result = probed_seconds, uploaded, cumulative


# ----------------------------------------------------------------------
# seed-independent inputs, shared across the cells of a study
# ----------------------------------------------------------------------
def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Grid(NamedTuple):
    """Per-interval start/end times and epochs over the whole run."""

    t0: np.ndarray
    t1: np.ndarray
    epoch_idx: np.ndarray
    epochs: int
    per_epoch: int


@lru_cache(maxsize=4, typed=True)
def _interval_grid(epoch_length: float, period: float, epochs: int) -> _Grid:
    per_epoch = int(math.ceil((epoch_length - TIME_EPSILON) / period))
    offsets = np.arange(per_epoch) * period
    end_offsets = np.minimum(offsets + period, epoch_length)
    epoch_starts = np.arange(epochs) * epoch_length
    t0 = (epoch_starts[:, None] + offsets[None, :]).reshape(-1)
    t1 = (epoch_starts[:, None] + end_offsets[None, :]).reshape(-1)
    epoch_idx = np.repeat(np.arange(epochs), per_epoch)
    return _Grid(
        _read_only(t0), _read_only(t1), _read_only(epoch_idx), epochs, per_epoch
    )


@lru_cache(maxsize=4, typed=True)
def _slot_indices(
    slot_epoch_length: float, slot_length: float, slot_count: int, *grid_key
) -> np.ndarray:
    """Vectorized :meth:`SlotProfile.slot_index` over the grid's ``t0``."""
    position = np.mod(_interval_grid(*grid_key).t0, slot_epoch_length)
    raw = np.floor_divide(position, slot_length).astype(np.int64)
    return _read_only(np.minimum(raw, slot_count - 1))


@lru_cache(maxsize=2, typed=True)
def _open_loop_timeline(
    duty_plan, t_on: float, phi_max: float, slot_key, *grid_key
) -> Tuple[np.ndarray, ...]:
    """``(active, active_until, anchor, cycle, phi)`` of SNIP-AT (a
    scalar *duty_plan*) or SNIP-OPT (a per-slot tuple, with *slot_key*
    the profile's slot geometry) over the whole run."""
    t0, t1, _, epochs, per_epoch = _interval_grid(*grid_key)
    if isinstance(duty_plan, tuple):
        slot = _slot_indices(*slot_key, *grid_key)
        duty = np.asarray(duty_plan, dtype=float)[slot]
    else:
        duty = np.full(t0.shape[0], duty_plan)
    active, active_until, clipped, phi = _activation(
        duty, t0, t1, epochs, per_epoch, phi_max
    )
    anchor = _anchors(active, clipped, duty, t0)
    safe_duty = np.where(duty > 0.0, duty, 1.0)
    cycle = t_on / safe_duty
    arrays = (active, active_until, anchor, cycle, phi)
    return tuple(_read_only(array) for array in arrays)


def _activation(
    duty: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    epochs: int,
    per_epoch: int,
    phi_max: float,
):
    """Resolve the per-interval energy accrual against the budget.

    Mirrors the fast runner's per-interval charging: full cost
    ``d * dt`` while it fits inside the remaining budget (within
    ``TIME_EPSILON``), an exact mid-interval clip at the crossing
    (``active_until = t + remaining / d``) when the remainder is
    spendable, and decision-off (``budget``) for the rest of the
    epoch.  Returns per-interval ``(active, active_until, clipped)``
    plus per-epoch Φ.
    """
    plan = (duty > 0.0).reshape(epochs, per_epoch)
    full_cost = np.where(plan, (duty * (t1 - t0)).reshape(epochs, per_epoch), 0.0)
    cum = np.cumsum(full_cost, axis=1)
    over = plan & (cum > phi_max + TIME_EPSILON)
    crossed = over.any(axis=1)
    cross = np.where(crossed, over.argmax(axis=1), per_epoch)
    fully = (plan & (np.arange(per_epoch)[None, :] < cross[:, None])).reshape(-1)
    # The crossing interval of each crossed epoch is clipped where
    # budget remains; only those few intervals need the remainder.
    rows = np.nonzero(crossed)[0]
    cols = cross[rows]
    remaining = phi_max - (cum[rows, cols] - full_cost[rows, cols])
    spendable = remaining > _EXHAUSTED_EPSILON
    at = rows[spendable] * per_epoch + cols[spendable]
    active = fully.copy()
    active[at] = True
    active_until = np.where(fully, t1, t0)
    active_until[at] = t0[at] + np.maximum(remaining[spendable], 0.0) / duty[at]
    clipped = np.zeros(active.shape[0], dtype=bool)
    clipped[at] = active_until[at] < t1[at] - TIME_EPSILON
    phi = np.minimum(cum[:, -1], phi_max)
    return active, active_until, clipped, phi


def _anchors(
    active: np.ndarray,
    clipped: np.ndarray,
    config_key: np.ndarray,
    t0: np.ndarray,
) -> np.ndarray:
    """Per-interval beacon-train anchor times.

    The fast runner re-anchors the train at the first interval of
    every maximal run of consecutive active intervals with an
    unchanged configuration, and also after a mid-interval budget
    clip (the train stops).  Epoch boundaries do *not* reset an
    uninterrupted train — a free-running radio.
    """
    n = active.shape[0]
    breaks = np.ones(n, dtype=bool)
    if n > 1:
        breaks[1:] = (
            ~active[:-1]
            | (config_key[1:] != config_key[:-1])
            | clipped[:-1]
        )
    new_streak = active & breaks
    streak_start = np.where(new_streak, np.arange(n), -1)
    np.maximum.accumulate(streak_start, out=streak_start)
    return np.where(
        streak_start >= 0, t0[np.maximum(streak_start, 0)], 0.0
    )


@lru_cache(maxsize=2, typed=True)
def _rush_walk(rush_flags: Tuple[bool, ...], slot_key, *grid_key):
    """SNIP-RH's walked (rush) intervals, grouped per epoch.

    One ``(epoch, ks, t0s, t1s)`` group per epoch that has any, in
    order, so the kernel can leave an epoch once its budget is spent.
    Python numbers index and compare faster than numpy scalars in the
    per-interval loop, with identical values.
    """
    t0, t1, epoch_idx, _, _ = _interval_grid(*grid_key)
    slot = _slot_indices(*slot_key, *grid_key)
    walk = np.nonzero(np.asarray(rush_flags, dtype=bool)[slot])[0]
    if not walk.shape[0]:
        return ()
    groups = np.split(walk, np.nonzero(np.diff(epoch_idx[walk]))[0] + 1)
    return tuple(
        (
            int(epoch_idx[ks[0]]),
            tuple(ks.tolist()),
            tuple(t0[ks].tolist()),
            tuple(t1[ks].tolist()),
        )
        for ks in groups
    )


def _grid_key(scenario: Scenario) -> Tuple[float, float, int]:
    profile = scenario.profile
    return (profile.epoch_length, scenario.decision_period, scenario.epochs)


def _slot_key(profile) -> Tuple[float, float, int]:
    return (profile.epoch_length, profile.slot_length, profile.slot_count)


class _Placement(NamedTuple):
    """A trace's contacts placed on one interval grid.

    Everything here depends only on the trace and the grid, so every
    mechanism and budget of a study shares it: the interval holding each
    start (where the probe search begins), the epoch in which an
    unprobed contact resolves as a miss and whether it ever does (a
    contact outliving the last interval stays pending), and the
    per-epoch arrivals.
    """

    first_k: np.ndarray
    miss_epoch: np.ndarray
    missable: np.ndarray
    arrived: np.ndarray
    arrived_capacity: np.ndarray


#: Grids placed per trace; a study uses one.
_PLACEMENT_LIMIT = 4


class _Columns(NamedTuple):
    """A trace's contacts as columns: arrays for numpy, tuples of
    Python floats for the scalar SNIP-RH walk, and the trace's
    placements on the grids asked for so far (see :func:`_placement`)."""

    contacts: Tuple[Contact, ...]
    starts: np.ndarray
    lengths: np.ndarray
    ends: np.ndarray
    starts_at: Tuple[float, ...]
    ends_at: Tuple[float, ...]
    placements: "OrderedDict[Tuple[float, float, int], _Placement]"


def _columns(trace: ContactTrace) -> _Columns:
    contacts = tuple(trace)
    starts = np.array([c.start for c in contacts], dtype=float)
    lengths = np.array([c.length for c in contacts], dtype=float)
    ends = starts + lengths
    return _Columns(
        contacts,
        _read_only(starts),
        _read_only(lengths),
        _read_only(ends),
        tuple(starts.tolist()),
        tuple(ends.tolist()),
        OrderedDict(),
    )


def _placement(columns: _Columns, grid_key: Tuple[float, float, int]) -> _Placement:
    """*columns* placed on the grid of *grid_key*, built once per grid.

    An unprobed contact resolves in the first interval that contains
    its end (within ``TIME_EPSILON``): the exact deferral rule of the
    fast runner.
    """
    placement = columns.placements.get(grid_key)
    if placement is not None:
        return placement
    grid = _interval_grid(*grid_key)
    t1, n_intervals = grid.t1, grid.t1.shape[0]
    starts, lengths, ends = columns.starts, columns.lengths, columns.ends
    miss_k = np.searchsorted(t1, ends - TIME_EPSILON, side="left")
    missable = (starts < t1[-1]) & (miss_k < n_intervals)
    miss_epoch = np.where(
        missable, grid.epoch_idx[np.minimum(miss_k, n_intervals - 1)], -1
    )
    arrival_epoch = np.floor_divide(starts, grid_key[0]).astype(np.int64)
    in_run = arrival_epoch < grid.epochs
    # bincount adds each epoch's lengths in trace order.
    arrived = np.bincount(arrival_epoch[in_run], minlength=grid.epochs)
    arrived_capacity = np.bincount(
        arrival_epoch[in_run], weights=lengths[in_run], minlength=grid.epochs
    )
    placement = _Placement(
        *(
            _read_only(array)
            for array in (
                np.searchsorted(t1, starts, side="right"),
                miss_epoch,
                missable,
                arrived,
                arrived_capacity,
            )
        )
    )
    columns.placements[grid_key] = placement
    while len(columns.placements) > _PLACEMENT_LIMIT:
        columns.placements.popitem(last=False)
    return placement


# ----------------------------------------------------------------------
# trace memoization (per process)
# ----------------------------------------------------------------------
_TRACE_MEMO: "OrderedDict[Tuple[object, ...], Tuple[ContactTrace, _Columns]]" = (
    OrderedDict()
)
_TRACE_MEMO_LIMIT = 8


def _memoized_trace(scenario: Scenario) -> Tuple[ContactTrace, _Columns]:
    """The deterministic trace for *scenario* and its columns, cached
    per process.

    The contact process depends only on the profile, the trace config,
    the contact source, and the seed — not on ζtarget, Φmax or the
    mechanism — so a grid shard reuses one generation across all cells
    that share a replicate seed.  A file-backed source ignores the seed
    (its replay is the file's), so it is keyed on its file's size and
    modification time instead: every replicate shares one read, and an
    edited file is read again.  Traces are treated as immutable by every
    engine, so sharing one instance across runs is safe.
    """
    source = scenario.contact_source
    stamp = source.file_stamp() if isinstance(source, TraceFileSource) else None
    key = (
        scenario.profile,
        scenario.trace_config,
        source,
        scenario.seed if stamp is None else None,
        stamp,
    )
    entry = _TRACE_MEMO.get(key)
    if entry is None:
        trace = generate_trace(scenario)
        entry = _TRACE_MEMO[key] = (trace, _columns(trace))
        while len(_TRACE_MEMO) > _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(key)
    return entry


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class VectorEngine:
    """Vectorized batch evaluator behind the ``"vector"`` registry name.

    The engine takes no options; any keyword raises
    :class:`~repro.errors.ConfigurationError` (engines resolve by name
    from study files, so silent typos in the options dict must fail
    fast).
    """

    name = "vector"

    def __init__(self, **options: object) -> None:
        if options:
            raise ConfigurationError(
                f"unknown vector engine option(s) {sorted(options)}; "
                "the vector engine takes no options"
            )

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        *,
        trace: Optional[ContactTrace] = None,
    ) -> RunResult:
        """Simulate *scenario* under *scheduler* with array kernels.

        See :meth:`repro.experiments.engine.Engine.run` for the
        parameter contract.  Scheduler types without a vectorized kernel
        fall back to the exact :class:`FastRunner` with a
        ``RuntimeWarning``.
        """
        columns = None
        if trace is None:
            trace, columns = _memoized_trace(scenario)
        if type(scheduler) in (SnipAtScheduler, SnipOptScheduler):
            kernel = self._run_static
        elif type(scheduler) is SnipRhScheduler:
            kernel = self._run_adaptive
        else:
            warnings.warn(
                "vector engine has no vectorized kernel for scheduler type "
                f"{type(scheduler).__name__}; falling back to the exact fast "
                "runner for this run",
                RuntimeWarning,
                stacklevel=2,
            )
            return FastRunner(scenario, scheduler, trace=trace).run()
        if columns is None:
            columns = _columns(trace)
        return kernel(scenario, scheduler, columns)

    # ------------------------------------------------------------------
    # static (open-loop) kernel: SNIP-AT and SNIP-OPT
    # ------------------------------------------------------------------
    def _run_static(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        columns: _Columns,
    ) -> RunResult:
        grid_key = _grid_key(scenario)
        _, t1, epoch_idx, epochs, _ = _interval_grid(*grid_key)
        if type(scheduler) is SnipAtScheduler:
            duty_plan, slot_key = scheduler.duty_cycle, None
        else:
            duty_plan = tuple(scheduler.plan.duty_cycles)
            slot_key = _slot_key(scheduler.profile)
        active, active_until, anchor, cycle, phi = _open_loop_timeline(
            duty_plan, scheduler.model.t_on, scenario.phi_max, slot_key, *grid_key
        )

        starts, ends = columns.starts, columns.ends
        placement = _placement(columns, grid_key)
        probe_k, probe_b = _probe_search_numpy(
            starts, ends, placement.first_k, active, active_until, anchor, cycle, t1
        )

        book = _ProbeBook(scenario.data_rate, LinkModel(), epochs)
        hits = np.nonzero(probe_k >= 0)[0]
        hit_k = probe_k[hits]
        book.probe_all(
            zip(
                ends[hits].tolist(),
                probe_b[hits].tolist(),
                t1[hit_k].tolist(),
                epoch_idx[hit_k].tolist(),
            )
        )
        return self._assemble(scenario, placement, probe_k, epochs, phi, book)

    # ------------------------------------------------------------------
    # adaptive (feedback) kernel: SNIP-RH
    # ------------------------------------------------------------------
    def _run_adaptive(
        self,
        scenario: Scenario,
        scheduler: SnipRhScheduler,
        columns: _Columns,
    ) -> RunResult:
        """Event-driven SNIP-RH: walk rush intervals only, epoch by epoch.

        SNIP-RH state (the two EWMAs) changes only at probed contacts,
        and it can only probe inside rush-hour slots, so the walk visits
        just the rush intervals — with the real scheduler's
        ``duty_cycle_config`` / ``data_threshold`` / ``on_probe`` driving
        the decisions, for bit-faithful learning dynamics — and every
        other contact resolves as a bulk miss afterwards.  The threshold
        and the learned config are re-read only after ``on_probe``, the
        one call that moves them, and the scheduler rebuilds that config
        without re-validating it.

        Each epoch's walk is left as soon as its budget is spent: nothing
        can activate before the next epoch, so the rest of the epoch is
        skipped like the non-rush intervals are — its contacts are
        caught up, unprobed, at the next walked interval, where one may
        still straddle in as the pending contact.
        """
        rate = scenario.data_rate
        phi_max = scenario.phi_max
        grid_key = _grid_key(scenario)
        epochs = _interval_grid(*grid_key).epochs
        walk = _rush_walk(
            tuple(scheduler.rush_flags), _slot_key(scheduler.profile), *grid_key
        )

        contacts = columns.contacts
        n_contacts = len(contacts)
        # +inf after the last start: no bounds check on the cursor.
        starts_at = columns.starts_at + (math.inf,)
        ends_at = columns.ends_at
        probed_js: List[int] = []
        probed_ks: List[int] = []

        book = _ProbeBook(rate, LinkModel(), epochs)
        probe = book.probe
        on_probe = scheduler.on_probe
        data_threshold = scheduler.data_threshold
        duty_cycle_config = scheduler.duty_cycle_config
        phi = np.zeros(epochs)
        uploaded_cumulative = 0.0
        # The beacon train: its duty-cycle (0.0 while stopped) and phase,
        # anchored where it (re)starts.  Configs share the model's Ton,
        # so equal duty-cycles mean equal configs.
        train = 0.0
        phase = 0.0
        pending: Optional[int] = None
        cursor = 0
        previous_k = -2
        threshold = data_threshold()
        # scheduler.duty_cycle_config()'s duty/cycle, re-read lazily
        # after each probe.
        stale = True

        for epoch, ks, t0s, t1s in walk:
            spent = 0.0
            for k, time, interval_end in zip(ks, t0s, t1s):
                remaining = phi_max - spent
                if remaining <= _EXHAUSTED_EPSILON:
                    break  # budget spent for the rest of this epoch
                if previous_k != k - 1:
                    # Skipped intervals are inactive (not rush, or no
                    # budget): the fast runner would have stopped the
                    # train there.
                    train = 0.0
                previous_k = k
                # A quiet interval has no contact to catch up or resolve:
                # only its decision and spend matter.
                quiet = pending is None and starts_at[cursor] >= interval_end
                if not quiet:
                    if pending is not None and ends_at[pending] <= time + TIME_EPSILON:
                        # Resolved as a miss inside a skipped interval.
                        pending = None
                    while starts_at[cursor] < time:
                        # Contacts that arrived in skipped intervals:
                        # unprobed; one may still straddle into this
                        # interval as pending.
                        if ends_at[cursor] > time + TIME_EPSILON:
                            pending = cursor
                        cursor += 1

                # --- scheduler.decide(time, node), inlined for SNIP-RH ---
                # The buffer level and the remaining budget are clamped
                # at 0 in the fast runner; both comparisons give the
                # same answer unclamped (threshold > 0, epsilon > 0),
                # and an active interval has remaining > epsilon, i.e.
                # its clamped value.
                if rate * time - uploaded_cumulative < threshold:
                    train = 0.0
                    if quiet:
                        continue
                    have_schedule = False
                else:
                    if stale:
                        learned = duty_cycle_config()
                        duty = learned.duty_cycle
                        cycle = learned.t_cycle
                        stale = False
                    if duty != train:
                        phase = time % cycle
                        train = duty
                    full_cost = duty * (interval_end - time)
                    if full_cost <= remaining + TIME_EPSILON:
                        active_until = interval_end
                        spent += remaining if remaining < full_cost else full_cost
                    else:
                        active_until = time + remaining / duty
                        spent += remaining
                    if active_until < interval_end - TIME_EPSILON:
                        # Budget ran dry mid-interval; the train stops.
                        train = 0.0
                    if quiet:
                        continue
                    have_schedule = True

                # Probe, miss or defer the pending straddler (beacons
                # before this interval do not exist for it), then this
                # interval's arrivals.
                j, query = pending, time
                pending = None
                while j is not None or starts_at[cursor] < interval_end:
                    if j is None:
                        j = cursor
                        cursor += 1
                        query = starts_at[j]
                    end = ends_at[j]
                    if have_schedule:
                        start = starts_at[j]
                        window = start if start > query else query
                        if window <= phase:
                            beacon = phase
                        else:
                            index = math.ceil((window - phase - TIME_EPSILON) / cycle)
                            beacon = phase + (index if index > 0 else 0) * cycle
                        if beacon < end and beacon < active_until:
                            probed_seconds, uploaded, uploaded_cumulative = probe(
                                (end, beacon, interval_end, epoch)
                            )
                            probed_js.append(j)
                            probed_ks.append(k)
                            on_probe(beacon, contacts[j], probed_seconds, uploaded)
                            threshold = data_threshold()
                            stale = True
                            j = None
                            continue
                    if end > interval_end + TIME_EPSILON:
                        pending = j
                    j = None
            phi[epoch] = spent

        probe_k = np.full(n_contacts, -1, dtype=np.int64)
        probe_k[probed_js] = probed_ks
        return self._assemble(
            scenario, _placement(columns, grid_key), probe_k, epochs, phi, book
        )

    # ------------------------------------------------------------------
    # result assembly (shared)
    # ------------------------------------------------------------------
    def _assemble(
        self,
        scenario: Scenario,
        placement: _Placement,
        probe_k: np.ndarray,
        epochs: int,
        phi: np.ndarray,
        book: _ProbeBook,
    ) -> RunResult:
        epoch_length = scenario.profile.epoch_length
        missed = np.bincount(
            placement.miss_epoch[(probe_k < 0) & placement.missable],
            minlength=epochs,
        )

        rate = scenario.data_rate
        uploads_through = np.cumsum(book.uploaded)
        epoch_ends = (np.arange(epochs) + 1.0) * epoch_length
        buffer_end = np.maximum(0.0, rate * epoch_ends - uploads_through)

        # The book's columns are lists of Python numbers already; tolist()
        # turns the arrays' numpy scalars into the same Python numbers.
        metrics = RunMetrics()
        for e, (epoch_phi, missed_e, arrived_e, capacity_e, buffer_e) in enumerate(
            zip(
                phi.tolist(),
                missed.tolist(),
                placement.arrived.tolist(),
                placement.arrived_capacity.tolist(),
                buffer_end.tolist(),
            )
        ):
            metrics.append(
                EpochMetrics(
                    epoch_index=e,
                    zeta=book.zeta[e],
                    phi=epoch_phi,
                    uploaded=book.uploaded[e],
                    probed_contacts=book.probed_n[e],
                    missed_contacts=missed_e,
                    arrived_contacts=arrived_e,
                    arrived_capacity=capacity_e,
                    buffer_end_level=buffer_e,
                    delivery_delay_weight=book.delay_weight[e],
                    max_delivery_delay=book.max_delay[e],
                )
            )

        return RunResult(scenario=scenario, metrics=metrics)


engine_factories.register("vector", VectorEngine)
