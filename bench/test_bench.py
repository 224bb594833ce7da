"""The benchmark's own tests: python3 -m pytest bench"""

import importlib
import json
import os

import numpy as np
import pytest

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path first)
import workloads
from tracer import BINDINGS, Tracer, self_times, summarize

REPO = os.path.dirname(workloads.HERE)


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS}


def _traced_reference_fit(name, seed, work_dir):
    workload = workloads.WORKLOADS[name]
    cohort = workloads.generate(workload, seed)
    setup = workloads.SetUp(workloads.data_io.save_observations(cohort.observations, str(work_dir)),
                            workloads.digest(cohort.observations), cohort.labels, cohort.truth)
    r = workloads.Run(workload, seed, setup, str(work_dir), workloads.load_targets())
    r.ingest()
    with Tracer() as tracer:
        r.reference_fit()
    calls = {k: v["calls"] for k, v in summarize(tracer.spans).items()}
    return r, r.reference_report, calls


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_identical_for_a_seed(name):
    workload = workloads.WORKLOADS[name]
    a, b = workloads.generate(workload, 3), workloads.generate(workload, 3)
    assert workloads.check_ingest(a.observations, workloads.digest(b.observations)) == []
    np.testing.assert_array_equal(a.truth.shared, b.truth.shared)
    for m, U in a.truth.modality_factors.items():
        np.testing.assert_array_equal(U, b.truth.modality_factors[m])
    if a.labels is not None:
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.labels.sum() == round(workloads.POSITIVE_SHARE * workload.n_patients)
    other = workloads.generate(workload, 4)
    assert workloads.check_ingest(a.observations, workloads.digest(other.observations)) != []


def test_fit500_seed0_counts_reproduce(tmp_path):
    r, report, calls = _traced_reference_fit("fit500", 0, tmp_path)
    assert report.sweeps_run == 342
    assert calls["solver.projected_step"] == 1368
    assert calls["model.objective"] == 22064
    assert round(report.loss_trace[-1][1], 2) == 43184.97
    assert r.target_sweep == 342 and r.ledger.failed == 0


def test_cohort10k_seed0_counts_reproduce(tmp_path):
    r, report, calls = _traced_reference_fit("cohort10k", 0, tmp_path)
    assert report.sweeps_run == 2
    assert calls["model.objective"] == 37
    assert round(report.loss_trace[-1][1], 2) == 4804284.57
    assert r.target_sweep == 1 and r.ledger.failed == 0


def test_self_time_never_exceeds_span_duration():
    workload = workloads.WORKLOADS["cv_mixed"]
    cohort = workloads.generate(workload, 0)
    spec = workload.spec(0)
    spec.solver.max_sweeps = 2
    with Tracer() as tracer:
        model = workloads.mmodel.build_model(spec, cohort.observations)
        workloads.solver.train(model)
    spans = tracer.spans
    assert {s[0] for s in spans} >= {"model.objective", "likelihoods.erf",
                                     "tensor.reconstruct_marginal"}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        assert own <= end - start
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    for name, entry in summarize(spans).items():
        assert entry["self_s"] <= entry["s"] + 1e-12, name


def test_tracer_restores_every_binding():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            during = _bindings()
            raise RuntimeError("leave the block early")
    assert all(during[key] is not fn and during[key].__wrapped__ is fn
               for key, fn in before.items())
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())


def test_checks_reject_bad_outputs():
    workload = workloads.WORKLOADS["fit500"]
    cohort = workloads.generate(workload, 0)
    changed = workloads.generate(workload, 0).observations
    changed["M1"].values[0, 0] += 1.0
    assert workloads.check_ingest(changed, workloads.digest(cohort.observations)) == [
        "M1: differs from the generated cohort"]
    assert workloads.check_projection(-np.ones((2, 5)), 2, 5) == ["negative entries"]
    assert workloads.check_projection(np.full((2, 5), np.nan), 2, 5) == ["rows not finite"]
    assert workloads.check_cv({"folds": [{"fold": 0, "auprc": 1.5}]}) != []
    assert workloads.check_unit_interval("x", float("nan")) != []


def test_targets_cover_the_pool():
    targets = workloads.load_targets()
    keys = {"fit500": {"triplets", "ref_objective_calls"},
            "cohort10k": {"triplets", "ref_objective_calls", "ref_project_calls"},
            "cv_mixed": {"triplets", "ref_erf_work"}}
    for name in workloads.WORKLOADS:
        instances = targets[name]["instances"]
        assert sorted(instances, key=int) == [str(s) for s in range(workloads.POOL_SIZE)]
        assert set(targets[name]["median"]) == keys[name]
        for key in keys[name]:
            assert all(i[key] > 0 for i in instances.values())
    assert targets["fit500"]["instances"]["0"]["ref_objective_calls"] == 22064


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
