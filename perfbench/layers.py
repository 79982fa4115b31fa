"""Where the span recorder hooks into each layer of the library.

Every entry names a binding site (the module or class attribute that
the measured code actually calls through) and the layer its spans are
charged to.  Layer names map onto the repository's modules:

========================  ===============================================
span layer                module / entry points
========================  ===============================================
``parser``                ``query.parser`` via ``query.engine`` and
                          ``query.service`` bindings
``engine``                ``SupgEngine.execute`` / ``execute_many``
``service.submit``        ``SupgService.submit``
``planning.plan``         ``plan_executions`` (engine and runner bindings)
``planning.prewarm``      ``QueryPlan.prewarm``
``pipeline``              ``Selector.select`` (stage glue)
``store``                 ``SampleStore.fetch``
``materialize``           ``core.base.materialize_selection``
``sampling``              ``SampleDesign.draw``, ``importance.weighted_sample``
``oracle``                ``BudgetedOracle.query``
``estimate``              selectors' ``estimate_tau_from_sample`` and the
                          ``precision_candidate_scan`` bindings
``bounds``                bound classes' batch methods
``scan``                  ``Dataset.select_above`` / ``count_above``
``backend``               statistics backends' providers
``datasets``              ``load_dataset`` as the figure module binds it
``fanout``                ``run_sweep_cells`` (runner and figure bindings)
``runner``                ``sweep``, ``compare_methods``, ``run_trials``
                          and the per-trial ``evaluate_selection``
========================  ===============================================
"""

from __future__ import annotations


def _labels_before(args):
    return args[0].labeled_count


def _labels_after(args, result, before):
    return args[0].labeled_count - before


def _records_out(args, result, state):
    return int(result.indices.size)


def install(recorder) -> None:
    """Patch every binding site listed in the module docstring."""
    import repro.core.base as base
    import repro.core.importance as importance
    import repro.core.uniform as uniform
    import repro.experiments.figures as figures
    import repro.experiments.runner as runner
    import repro.query.engine as engine
    import repro.query.service as service
    from repro.bounds import (
        BootstrapBound,
        ClopperPearsonBound,
        ConfidenceBound,
        HoeffdingBound,
        NormalBound,
    )
    from repro.core import baselines
    from repro.core.pipeline import SampleStore
    from repro.core.planning import QueryPlan
    from repro.core.stats_backend import DiskBackend, InMemoryBackend
    from repro.datasets import Dataset
    from repro.oracle import BudgetedOracle
    from repro.sampling.designs import SampleDesign

    patch = recorder.patch
    patch(engine, "parse_query", "parser")
    patch(engine, "parse_script", "parser")
    patch(service, "parse_query", "parser")
    patch(engine.SupgEngine, "execute", "engine")
    patch(engine.SupgEngine, "execute_many", "engine")
    patch(service.SupgService, "submit", "service.submit")
    patch(engine, "plan_executions", "planning.plan")
    patch(runner, "plan_executions", "planning.plan")
    patch(QueryPlan, "prewarm", "planning.prewarm")
    patch(base.Selector, "select", "pipeline")
    patch(SampleStore, "fetch", "store")
    patch(base, "materialize_selection", "materialize", value=_records_out)
    patch(SampleDesign, "draw", "sampling")
    patch(importance, "weighted_sample", "sampling")
    patch(BudgetedOracle, "query", "oracle", value=_labels_after, before=_labels_before)
    patch(importance, "precision_candidate_scan", "estimate")
    patch(uniform, "precision_candidate_scan", "estimate")
    for module in (importance, uniform, baselines):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, base.Selector)
                and value.__module__ == module.__name__
                and "estimate_tau_from_sample" in vars(value)
            ):
                patch(value, "estimate_tau_from_sample", "estimate")
    for bound in (ConfidenceBound, NormalBound, HoeffdingBound, ClopperPearsonBound, BootstrapBound):
        for method in ("lower_batch", "upper_batch", "upper_batch_mean_augmented"):
            if method in vars(bound):
                patch(bound, method, "bounds")
    patch(Dataset, "select_above", "scan")
    patch(Dataset, "count_above", "scan")
    for backend in (InMemoryBackend, DiskBackend):
        for method in ("sorted_scores", "score_order", "sampling_weights"):
            patch(backend, method, "backend")
    patch(figures, "load_dataset", "datasets")
    patch(figures, "run_sweep_cells", "fanout")
    patch(runner, "run_sweep_cells", "fanout")
    patch(figures, "compare_methods", "runner")
    for name in ("sweep", "compare_methods", "run_trials", "evaluate_selection"):
        patch(runner, name, "runner")
