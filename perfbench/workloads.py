"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, runs a timed
*phase* against the public API (``SupgEngine``, ``SupgService``,
``repro.experiments``) and checks every result against an independent
path afterwards.  A workload object has five steps:

- ``setup()`` generates the inputs, registers them, builds their
  statistics and warms what the workload declares warm.  The runner
  times it and repeats it, so ``setup_s`` is a median.
- ``fresh(state)`` builds what one phase needs (an engine with the
  store in its declared state), outside the timed and traced region.
- ``phase(state, engine, meter)`` runs the timed operations and
  returns a :class:`Phase`.  Traced runs call it twice on one state
  (untraced, then traced), each time on a fresh engine, so both phases
  repeat exactly the same work.
- ``verify(state, phases)`` recomputes every result on the reference
  path and marks each operation that differs as failed.
- ``close(state)`` releases the state (temporary stores included).

Two always-on meters that record no spans sit on the measured path:
:class:`LabelMeter` counts oracle labels paid outside the sample store
(the fresh-path labels of the paper's cost model), and
:class:`TrialClock` times each selector trial of the artifact's
sequential regenerations, where the library exposes no per-trial
return.
"""

from __future__ import annotations

import hashlib
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

TABLE = "frames"
SQL = (
    "SELECT * FROM frames WHERE oracle = 1 ORACLE LIMIT {budget} "
    "USING SCORE(frame) {kind} TARGET {gamma}% WITH PROBABILITY 95%"
)
KINDS = ("RECALL", "PRECISION")
SWEEP_GAMMAS = (70, 75, 80, 85, 90, 95)
MIN_LATENCY_OPS = 200  # p95 needs at least ten samples beyond it


# -- operation records -----------------------------------------------------------


@dataclass
class Op:
    """One timed operation and what became of it.

    ``key`` names the operation's inputs, so the reference path can
    recompute it; ``digest`` fingerprints the selected indices (and
    tau); ``met`` is whether the achieved recall or precision met the
    target, computed outside the timed region.
    """

    key: tuple
    latency_s: float
    digest: str | None = None
    met: bool | None = None
    error: str | None = None


@dataclass
class Phase:
    """The outcome of one timed phase."""

    ops: list[Op]
    busy_s: float  # wall time of the timed work (the artifact time)
    labels_paid: int  # store labels drawn plus fresh-path labels
    counters: dict = field(default_factory=dict)  # public-surface counters
    extra: dict = field(default_factory=dict)  # workload-specific layer figures
    latencies_s: list[float] | None = None  # overrides per-op latencies
    op_thread_s: float | None = None  # busy time of the thread executing queries
    artifact_s: float | None = None  # one regeneration's time, when busy_s spans several
    outputs: int = 1  # how many whole outputs (of ``artifact_s`` each) ``ops`` spans


def digest_of(indices, tau: float, corrupt: bool = False) -> str:
    """Fingerprint of a selection; ``corrupt`` drops its last index."""
    array = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
    if corrupt and array.size:
        array = array[:-1]
    digest = hashlib.blake2b(array.tobytes(), digest_size=16)
    digest.update(repr(float(tau)).encode())
    return digest.hexdigest()


def target_met(indices, dataset, kind: str, gamma: float) -> bool:
    from repro import evaluate_selection

    quality = evaluate_selection(indices, dataset.labels, positive_total=dataset.positive_count)
    achieved = quality.recall if kind == "RECALL" else quality.precision
    return achieved >= gamma - 1e-9


def counter_delta(after, before) -> dict:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float))
    }


# -- always-on meters -------------------------------------------------------------


class _Patch:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class LabelMeter(_Patch):
    """Counts distinct labels revealed by ``BudgetedOracle.query``.

    Store misses label through the store's own ground-truth lookup and
    are counted by the store's ``labels_drawn``; every other label (the
    gamma-dependent stage 2 of two-stage IS-CI-P, fresh draws without a
    context) goes through a ``BudgetedOracle`` and is counted here.
    Only one thread executes queries at a time in every workload.
    """

    def __init__(self) -> None:
        super().__init__()
        self.labels = 0
        from repro.oracle import BudgetedOracle

        original = BudgetedOracle.query
        meter = self

        def query(oracle, indices):
            before = oracle.labeled_count
            try:
                return original(oracle, indices)
            finally:
                meter.labels += oracle.labeled_count - before

        self.replace(BudgetedOracle, "query", query)


class TrialClock(_Patch):
    """Per-trial latency of the experiment runner's sequential path.

    Inside one sweep cell the runner runs its trials back to back, and
    each trial ends with the runner's ``evaluate_selection`` call.  A
    trial's latency is the time from the previous trial's end (or the
    cell's start) to its own end.
    """

    def __init__(self, runner) -> None:
        super().__init__()
        self.latencies: list[float] = []
        self._last: float | None = None
        clock = self
        sweep, evaluate = runner.sweep, runner.evaluate_selection

        def timed_sweep(*args, **kwargs):
            clock._last = time.perf_counter()
            try:
                return sweep(*args, **kwargs)
            finally:
                clock._last = None

        def timed_evaluate(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            if clock._last is not None:
                now = time.perf_counter()
                clock.latencies.append(now - clock._last)
                clock._last = now
            return result

        self.replace(runner, "sweep", timed_sweep)
        self.replace(runner, "evaluate_selection", timed_evaluate)


def warm_statistics(dataset) -> None:
    """Build every statistic a default-selector query touches."""
    from repro.sampling import DEFAULT_EXPONENT, DEFAULT_MIXING

    dataset.fingerprint
    dataset.sorted_scores
    dataset.score_order
    dataset.zone_map
    dataset.sampling_weights(DEFAULT_EXPONENT, DEFAULT_MIXING)


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


# -- query-cold -------------------------------------------------------------------


class QueryCold:
    """Closed loop, one client, every store lookup a miss.

    ``engine.execute`` on Beta(0.01, 1) records with the in-memory
    backend; statements alternate recall and precision targets (default
    selectors, gamma 90%) and each carries a distinct seed.  The number
    of statements is fixed by ``seconds`` (15 per second, at least 200),
    so every run does the same amount of work.
    """

    name = "query-cold"
    STATEMENTS_PER_SECOND = 15

    def __init__(
        self, seed: int, seconds: float, tiny: bool, corrupt: bool = False, traced: bool = False
    ) -> None:
        self.size = 60_000 if tiny else 1_000_000
        self.budget = 1_000 if tiny else 10_000
        self.count = 4 if tiny else max(MIN_LATENCY_OPS, round(self.STATEMENTS_PER_SECOND * seconds))
        self.corrupt = corrupt
        self.data_seed, self.query_seed = _seeds(seed, 2)

    def statement(self, i: int) -> tuple[str, int, str, float]:
        kind = KINDS[i % 2]
        return SQL.format(budget=self.budget, kind=kind, gamma=90), self.query_seed + i, kind, 0.9

    def setup(self) -> dict:
        from repro import SupgEngine
        from repro.datasets import make_beta_dataset

        dataset = make_beta_dataset(0.01, 1.0, size=self.size, seed=self.data_seed)
        engine = SupgEngine()
        engine.register_table(TABLE, dataset)
        warm_statistics(dataset)
        return {
            "dataset": dataset,
            "engines": [engine],
            "backend_counters": dict(engine.backend_stats()),
        }

    def fresh(self, state):
        """The phase's engine: set-up's for the first phase, then a new
        one, so every phase starts with an empty store."""
        from repro import SupgEngine

        if state["engines"]:
            return state["engines"].pop()
        engine = SupgEngine()
        engine.register_table(TABLE, state["dataset"])
        return engine

    def phase(self, state, engine, meter: LabelMeter) -> Phase:
        dataset = state["dataset"]
        before = dict(engine.session_stats())
        labels_before = meter.labels
        ops: list[Op] = []
        busy = 0.0
        for i in range(self.count):
            sql, seed, kind, gamma = self.statement(i)
            op = Op(key=(i,), latency_s=0.0)
            start = time.perf_counter()
            try:
                execution = engine.execute(sql, seed=seed)
            except Exception as exc:  # every failure counts against error_rate
                op.error = repr(exc)
            op.latency_s = time.perf_counter() - start
            if op.error is None:
                result = execution.result
                op.digest = digest_of(result.indices, result.tau, self.corrupt and i == 0)
                op.met = target_met(result.indices, dataset, kind, gamma)
            busy += op.latency_s
            ops.append(op)
        counters = counter_delta(engine.session_stats(), before)
        return Phase(
            ops=ops,
            busy_s=busy,
            labels_paid=counters["labels_drawn"] + meter.labels - labels_before,
            counters=counters,
        )

    def verify(self, state, phases: list[Phase]) -> None:
        """Reference: ``Selector.select(dataset, seed)`` with no context."""
        from repro import default_selector, parse_query

        dataset = state["dataset"]
        reference: dict[tuple, str] = {}
        for phase in phases:
            for op in phase.ops:
                if op.key not in reference:
                    sql, seed, _, _ = self.statement(op.key[0])
                    selector = default_selector(parse_query(sql).to_approx_query())
                    result = selector.select(dataset, seed=seed)
                    reference[op.key] = digest_of(result.indices, result.tau)
                if op.error is None and op.digest != reference[op.key]:
                    op.error = "selected indices differ from Selector.select"

    def close(self, state) -> None:
        state.clear()


# -- service-open -----------------------------------------------------------------


class ServiceOpen:
    """Open loop: a seeded arrival schedule submitted to ``SupgService``.

    Arrivals are a Poisson process at ``RATE_QPS`` conditioned on the
    run's arrival count (sorted uniform due times over the schedule), so
    every run offers the same load.  One generator thread submits at the
    due times and one collector (the main thread) waits on the tickets
    in order: two load threads.  Statements cycle through 16 seeds x 2
    designs (recall and precision, gamma 70-95%) in a seeded order, so
    concurrent arrivals fold into shared draws.  The store is declared
    warm: set-up pre-draws the 32 keys, as a long-running service holds
    its tenants' draws.  The service runs its defaults: windows close
    at 8 statements or 25 ms, one window in flight, executed in the
    scheduler thread, unbounded blocking admission.
    """

    name = "service-open"
    RATE_QPS = 10.0
    SEEDS = 16

    def __init__(
        self, seed: int, seconds: float, tiny: bool, corrupt: bool = False, traced: bool = False
    ) -> None:
        self.size = 60_000 if tiny else 1_000_000
        self.budget = 1_000 if tiny else 10_000
        self.corrupt = corrupt
        rng = np.random.default_rng(seed)
        self.data_seed = int(rng.integers(0, 2**31 - 1))
        self.pool = [int(v) for v in rng.integers(0, 2**31 - 1, size=self.SEEDS)]
        count = 6 if tiny else max(MIN_LATENCY_OPS, round(self.RATE_QPS * seconds))
        self.due = np.sort(rng.uniform(0.0, count / self.RATE_QPS, size=count))
        self.requests = []
        for i in rng.permutation(count):
            kind = KINDS[i % 2]
            gamma = SWEEP_GAMMAS[(i // 2) % len(SWEEP_GAMMAS)]
            sql = SQL.format(budget=self.budget, kind=kind, gamma=gamma)
            self.requests.append((sql, self.pool[i % self.SEEDS], kind, gamma / 100.0))

    def _warm_engine(self, dataset):
        """An engine whose store holds all 32 draws; returns it and the
        labels the pre-draw paid."""
        from repro import SupgEngine

        engine = SupgEngine()
        engine.register_table(TABLE, dataset)
        warm_statistics(dataset)
        statements = [SQL.format(budget=self.budget, kind=kind, gamma=90) for kind in KINDS]
        keys = [(sql, seed) for seed in self.pool for sql in statements]
        engine.plan([sql for sql, _ in keys], seed=[seed for _, seed in keys]).prewarm(
            engine.context.store
        )
        return engine, engine.context.stats()["labels_drawn"]

    def setup(self) -> dict:
        from repro.datasets import make_beta_dataset

        dataset = make_beta_dataset(0.01, 1.0, size=self.size, seed=self.data_seed)
        engine, labels = self._warm_engine(dataset)
        return {
            "dataset": dataset,
            "engines": [engine],
            "setup_labels": labels,
            "backend_counters": dict(engine.backend_stats()),
        }

    def fresh(self, state):
        """The phase's warm engine: set-up's for the first phase, then a
        newly pre-drawn one."""
        if state["engines"]:
            return state["engines"].pop()
        return self._warm_engine(state["dataset"])[0]

    def phase(self, state, engine, meter: LabelMeter) -> Phase:
        from repro import SupgService

        dataset = state["dataset"]
        before = dict(engine.session_stats())
        service = SupgService(engine)
        labels_before = meter.labels
        submitted: queue.Queue = queue.Queue()
        lags: list[float] = []
        start = time.perf_counter()

        def generate() -> None:
            for i, (sql, seed, _, _) in enumerate(self.requests):
                due = start + float(self.due[i])
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(max(0.0, time.perf_counter() - due))
                try:
                    submitted.put((i, due, service.submit(sql, seed=seed), None))
                except Exception as exc:  # a rejected submission is a failed operation
                    submitted.put((i, due, None, repr(exc)))

        generator = threading.Thread(target=generate, name="bench-generator")
        generator.start()
        ops: list[Op] = [None] * len(self.requests)  # type: ignore[list-item]
        results = {}
        op_windows: list[int | None] = [None] * len(self.requests)
        last = start
        try:
            for _ in self.requests:
                i, due, ticket, error = submitted.get(timeout=120.0)
                op = Op(key=(i,), latency_s=0.0, error=error)
                if ticket is not None:
                    try:
                        execution = ticket.result(timeout=120.0)
                    except Exception as exc:  # typed service errors count as failures
                        op.error = repr(exc)
                    else:
                        results[i] = execution.result
                    op_windows[i] = ticket.window
                last = time.perf_counter()
                op.latency_s = last - due
                ops[i] = op
        finally:
            generator.join(timeout=120.0)
            service.close(drain=True, timeout=120.0)
        busy = last - start
        for i, result in results.items():
            _, _, kind, gamma = self.requests[i]
            ops[i].digest = digest_of(result.indices, result.tau, self.corrupt and i == 0)
            ops[i].met = target_met(result.indices, dataset, kind, gamma)
        stats = dict(service.session_stats())
        windows = service.window_log
        counters = counter_delta(stats, before)
        return Phase(
            ops=ops,
            busy_s=busy,
            labels_paid=state["setup_labels"] + stats["labels_drawn"] - before["labels_drawn"]
            + meter.labels - labels_before,
            counters=counters,
            extra={"windows": windows, "lags_s": lags, "op_windows": op_windows},
            op_thread_s=sum(w["window_seconds"] for w in windows),
        )

    def verify(self, state, phases: list[Phase]) -> None:
        """Reference: sequential ``engine.execute`` in arrival order."""
        from repro import SupgEngine

        engine = SupgEngine()
        engine.register_table(TABLE, state["dataset"])
        reference = []
        for sql, seed, _, _ in self.requests:
            result = engine.execute(sql, seed=seed).result
            reference.append(digest_of(result.indices, result.tau))
        for phase in phases:
            for op in phase.ops:
                if op.error is None and op.digest != reference[op.key[0]]:
                    op.error = "selected indices differ from sequential engine.execute"

    def close(self, state) -> None:
        state.clear()


# -- artifact-fig8 ----------------------------------------------------------------


def _trial_rows(result) -> list[tuple]:
    """Every trial record of a figure result, in a fixed order."""
    rows = []
    for key in sorted(result.summaries):
        for record in result.summaries[key].records:
            rows.append((key, record.method, record.dataset, record.gamma, record.seed,
                         record.target_metric, record.quality_metric,
                         record.oracle_calls, record.result_size))
    return rows


class ArtifactFig8:
    """``figure8(paper_scale=True)``: the recall-target sweep over all six
    Table 2 datasets, regenerated from scratch at ``n_jobs=1`` (the
    ``repro experiment`` default) once for each of ``FIGURE_SEEDS``
    figure seeds drawn from the workload seed, each time in one
    execution context so the store's labels can be counted.  Trial
    latencies pool over the figure seeds, because the tail of one seed's
    trials moves with its data, and ``artifact_s`` is the median
    regeneration.  A traced run regenerates the first figure seed once
    per phase.  One operation is one selector trial.  The check
    regenerates every figure at ``n_jobs=2``, through the runner's fork
    fan-out."""

    name = "artifact-fig8"
    FIGURE_SEEDS = 3
    CHECK_JOBS = 2

    def __init__(
        self, seed: int, seconds: float, tiny: bool, corrupt: bool = False, traced: bool = False
    ) -> None:
        self.tiny = tiny
        self.corrupt = corrupt
        self.fig_seeds = _seeds(seed, self.FIGURE_SEEDS)[: 1 if traced else None]
        self.kwargs = dict(paper_scale=not tiny)
        if tiny:
            self.kwargs.update(trials=2, targets=(0.8, 0.9))

    def setup(self) -> dict:
        """The figure regenerates its inputs itself; set-up generates the
        first figure seed's six datasets and their statistics once, which
        is the input side of one regeneration's cost."""
        from repro.datasets import EVALUATION_DATASETS, load_dataset
        from repro.experiments.figures import FAST_SIZES

        totals: dict = {}
        for name in EVALUATION_DATASETS:
            size = FAST_SIZES[name] if self.tiny else None
            dataset = load_dataset(name, size=size, seed=self.fig_seeds[0])
            before = dict(dataset.stats_backend.counters)
            warm_statistics(dataset)
            for key, value in counter_delta(dataset.stats_backend.counters, before).items():
                totals[key] = totals.get(key, 0) + value
        return {"backend_counters": totals}

    def fresh(self, state):
        return None

    def phase(self, state, engine, meter: LabelMeter) -> Phase:
        from repro.core.pipeline import ExecutionContext
        import repro.experiments.runner as runner
        from repro.experiments.figures import figure8

        walls = []
        latencies: list[float] = []
        counters: dict = {}
        labels_before = meter.labels
        ops: list[Op] = []
        for s, fig_seed in enumerate(self.fig_seeds):
            context = ExecutionContext()
            clock = TrialClock(runner)
            try:
                start = time.perf_counter()
                result = figure8(n_jobs=1, context=context, seed=fig_seed, **self.kwargs)
                walls.append(time.perf_counter() - start)
            finally:
                clock.remove()
            latencies.extend(clock.latencies)
            for key, value in context.stats().items():
                counters[key] = counters.get(key, 0) + value
            rows = _trial_rows(result)
            if self.corrupt and not ops:
                rows[0] = rows[0][:-1] + (rows[0][-1] - 1,)
            ops.extend(
                Op(key=(s, i), latency_s=0.0, digest=repr(row), met=row[5] >= row[3] - 1e-9)
                for i, row in enumerate(rows)
            )
        counters["trials"] = len(ops) // len(self.fig_seeds)
        return Phase(
            ops=ops,
            busy_s=sum(walls),
            artifact_s=statistics.median(walls),
            labels_paid=counters["labels_drawn"] + meter.labels - labels_before,
            counters=counters,
            latencies_s=latencies,
            outputs=len(walls),
        )

    def verify(self, state, phases: list[Phase]) -> None:
        """Reference: each figure at ``n_jobs=2``; every trial record of
        every regeneration must match it."""
        from repro.experiments.figures import figure8

        references = [
            _trial_rows(figure8(n_jobs=self.CHECK_JOBS, seed=fig_seed, **self.kwargs))
            for fig_seed in self.fig_seeds
        ]
        for phase in phases:
            if len(phase.ops) != sum(len(rows) for rows in references):
                phase.ops.append(Op(key=(0, -1), latency_s=0.0, error="trial count differs from the n_jobs=2 figures"))
            if len(phase.latencies_s) != len(phase.ops):
                phase.ops.append(Op(key=(0, -1), latency_s=0.0, error="a trial latency is missing"))
            for op in phase.ops:
                s, i = op.key
                if op.error is None and (i >= len(references[s]) or op.digest != repr(references[s][i])):
                    op.error = "trial record differs from the n_jobs=2 figure"

    def close(self, state) -> None:
        state.clear()


WORKLOADS = {cls.name: cls for cls in (QueryCold, ServiceOpen, ArtifactFig8)}
