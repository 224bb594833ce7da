"""Benchmark workloads: cohorts, timed operations, output checks and quality.

Each workload is one caller issuing operations back to back (a closed
loop). Inputs come only from the instance seed; the library receives the
generated cohort, written to disk and read back through its manifest.

The seed picks one instance of a frozen pool (`seed % POOL_SIZE`). For
each pooled instance `targets.json` holds what the parent commit did on
it: the objective at which its solver stopped (the target of the timed
fit) and the work each stage cost. One instance can cost many times
another (fit500's solver stops anywhere from sweep 9 to sweep 685), so a
raw time would mostly measure which seed was drawn. Each stage time is
therefore rescaled to the pool's median instance: multiplied by (pool
median / this instance's value) of the stage's frozen work. A change that
does the same stage with less or cheaper work lowers the rescaled time in
proportion.
"""

import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

import margfact.analysis as analysis
import margfact.data_io as data_io
import margfact.evaluate as evaluate
import margfact.likelihoods as likelihoods
import margfact.model as mmodel
import margfact.solver as solver
import margfact.tensor as tensor
from margfact.model import SHARED, InteractionTensorSpec, ModelSpec, SolverConfig

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS_PATH = os.path.join(HERE, "targets.json")
POOL_SIZE = 16
# Per-instance work of the parent commit, frozen in targets.json. A stage's
# time is multiplied by (pool median / this instance's value) of its key.
WORK_KEYS = ("triplets", "ref_objective_calls", "ref_project_calls", "ref_erf_work")
# A timed fit has reached its target when its objective is at or below the
# target; the slack only absorbs last-bit differences in the final sum.
TARGET_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_patients: int
    n_fit: int          # the first n_fit patients are fitted, the rest projected
    modalities: tuple   # (name, items, datatype)
    tensors: tuple      # (id, modalities, distribution, sigma2)
    rank: int
    solver: tuple       # SolverConfig keyword arguments, as (key, value) pairs
    sparsity: float = 0.5
    scale: float = 1.0
    fits_to_target: bool = True

    def spec(self, seed):
        return ModelSpec(
            rank=self.rank,
            tensors=[InteractionTensorSpec(tid, list(mods), dist, sigma2)
                     for tid, mods, dist, sigma2 in self.tensors],
            init_seed=seed, solver=SolverConfig(**dict(self.solver)))


_FIT_SOLVER = (("max_sweeps", 5000), ("tol", 1e-6), ("step0", 1e-4), ("log_every", 1))

WORKLOADS = {w.name: w for w in (
    Workload(
        "fit500",
        "criterion-5 fit of dense 500x3x30 Poisson counts to the parent's stop: "
        "per-evaluation overhead, regularizers and line-search waste dominate",
        n_patients=500, n_fit=500,
        modalities=(("M0", 30, "integer"), ("M1", 30, "integer"), ("M2", 30, "integer")),
        tensors=(("t0", ("M0", "M1"), "poisson", None), ("t1", ("M0", "M2"), "poisson", None)),
        rank=5, solver=_FIT_SOLVER),
    Workload(
        "cohort10k",
        "sparse 10k-patient Dx/Rx cohort: ingest, fit 9k to target, project 1k held out, "
        "analysis, save/load; NLL kernels over mostly-zero cells dominate",
        n_patients=10_000, n_fit=9_000,
        modalities=(("Dx", 500, "binary"), ("Rx", 300, "integer")),
        tensors=(("dx_rx", ("Dx", "Rx"), "poisson", None),),
        rank=20, solver=_FIT_SOLVER, sparsity=0.3, scale=0.1),
    Workload(
        "cv_mixed",
        "five-fold lasso-logistic CV over all four observation kinds: the only path "
        "through the Gaussian kernels, series erf, lambda selection and AUPRC",
        n_patients=200, n_fit=200,
        modalities=(("Dx", 30, "binary"), ("Rx", 30, "integer"),
                    ("Lab", 10, "real"), ("Vit", 10, "binary")),
        tensors=(("dx_rx", ("Dx", "Rx"), "poisson", None),
                 ("lab_vit", ("Lab", "Vit"), "gaussian", 0.1)),
        rank=4, solver=(("max_sweeps", 30), ("tol", 1e-6), ("step0", 1e-4)),
        fits_to_target=False),
)}

# five_fold_cv's own seed, fixed so the folds depend only on the cohort
CV_SEED = 0
POSITIVE_SHARE = 0.2


def instance_seed(seed):
    return seed % POOL_SIZE


@dataclasses.dataclass
class Cohort:
    spec: ModelSpec
    observations: dict
    truth: object
    labels: np.ndarray = None


@dataclasses.dataclass
class SetUp:
    """What set-up leaves for a run: the manifest of the written cohort, the
    digest of the generated cells and the CV labels. The planted truth is
    kept only when the cohort was generated in the run's own process; the
    traced run's fit quality needs it."""
    manifest: str
    digest: dict
    labels: np.ndarray = None
    truth: object = None


def generate(workload, seed):
    """The workload's cohort for one instance seed, straight from synth_generate."""
    spec = workload.spec(seed)
    observations, truth = data_io.synth_generate(
        spec, {name: items for name, items, _ in workload.modalities},
        {name: dtype for name, _, dtype in workload.modalities},
        workload.n_patients, sparsity=workload.sparsity, scale=workload.scale, seed=seed)
    labels = None
    if not workload.fits_to_target:
        # positives: the top share of patients on planted shared column 0
        order = np.argsort(-truth.shared[:, 0], kind="stable")
        labels = np.zeros(workload.n_patients, dtype=int)
        labels[order[:round(POSITIVE_SHARE * workload.n_patients)]] = 1
    return Cohort(spec, observations, truth, labels)


def digest(observations):
    """SHA-256 per modality of its kind, ids and cell values.

    Ingestion is checked against the digest of the generated cohort, so the
    measuring process need not hold the generated cohort beside the loaded
    one. Adding 0.0 turns -0.0 into 0.0, so equal cells hash equally.
    """
    out = {}
    for name, obs in observations.items():
        h = hashlib.sha256(json.dumps(
            [str(obs.kind), list(obs.shared_ids), list(obs.item_ids)]).encode())
        h.update(np.ascontiguousarray(obs.values + 0.0, dtype=np.float64).tobytes())
        out[name] = h.hexdigest()
    return out


def triplet_count(observations):
    return sum(int(np.count_nonzero(obs.values)) for obs in observations.values())


def load_targets():
    with open(TARGETS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Ledger:
    """Operations attempted and failed; an operation fails when any check on it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, operation, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{operation}: {'; '.join(problems)}")

    def extend(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


# ---------------------------------------------------------------- checks

def reached(objective, target):
    return objective <= target + TARGET_RTOL * abs(target)


def target_sweep(report, target):
    """First logged sweep whose objective is at or below the target, or None."""
    return next((sweep for sweep, f in report.loss_trace if reached(f, target)), None)


def check_ingest(loaded, expected):
    """Compare a loaded cohort with the digest of the generated one."""
    got = digest(loaded)
    if list(got) != list(expected):
        return [f"modalities {list(got)} != {list(expected)}"]
    return [f"{name}: differs from the generated cohort" for name in expected
            if got[name] != expected[name]]


def check_factors(model):
    problems = []
    for name, U in [("shared", model.shared)] + list(model.factors.items()):
        if not np.all(np.isfinite(U)):
            problems.append(f"{name} factor not finite")
        elif np.any(U < 0):
            problems.append(f"{name} factor negative")
    return problems


def check_fit(model, report, target=None):
    values = [f for _, f in report.loss_trace]
    problems = check_factors(model)
    if not all(math.isfinite(f) for f in values):
        problems.append("objective not finite")
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("loss trace increases")
    if target is not None and not reached(values[-1], target):
        problems.append(f"stopped at {values[-1]!r}, above target {target!r}")
    return problems


def check_projection(S, n_rows, rank):
    if S.shape != (n_rows, rank):
        return [f"shape {S.shape} != {(n_rows, rank)}"]
    if not np.all(np.isfinite(S)):
        return ["rows not finite"]
    return ["negative entries"] if np.any(S < 0) else []


def check_correspondence(row):
    total = float(np.sum(row.scores))
    if row.all_zero:
        return [] if total == 0.0 else ["all_zero row has mass"]
    if np.any(row.scores < 0) or abs(total - 1.0) > 1e-9:
        return [f"row sums to {total!r}"]
    return []


def check_phenotypes(phenotypes, rank, modalities):
    problems = []
    if len(phenotypes) != rank:
        problems.append(f"{len(phenotypes)} phenotypes for rank {rank}")
    for ph in phenotypes:
        if sorted(ph.items) != sorted(modalities):
            problems.append(f"phenotype {ph.index}: modalities {sorted(ph.items)}")
        for items in ph.items.values():
            if any(not 0.0 <= w <= 1.0 for _, w in items):
                problems.append(f"phenotype {ph.index}: weight outside [0, 1]")
    return problems


def check_unit_interval(name, value):
    return [] if math.isfinite(value) and 0.0 <= value <= 1.0 else [f"{name} = {value!r}"]


def check_cv(result, n_folds=5):
    problems = []
    if [f["fold"] for f in result["folds"]] != list(range(n_folds)):
        problems.append(f"folds {[f['fold'] for f in result['folds']]}")
    for fold in result["folds"]:
        problems += check_unit_interval(f"fold {fold['fold']} auprc", fold["auprc"])
    return problems


# --------------------------------------------------------------- quality

def planted_objective(spec, fit_obs, truth, n_fit):
    """Objective of the planted factors on the fitted patients."""
    model = mmodel.build_model(spec, fit_obs)
    model.shared = truth.shared[:n_fit]
    model.factors = {name: truth.modality_factors[name] for name in model.factors}
    return mmodel.objective(model)


def projected_gradient_norm(model):
    """Norm of the projected gradient over all blocks (0 at a KKT point)."""
    total = 0.0
    for block in [SHARED] + list(model.factors):
        x = model.shared if block == SHARED else model.factors[block]
        g = mmodel.gradient_block(model, block)
        pg = np.where(x > 0, g, np.minimum(g, 0.0))
        total += float(np.sum(pg * pg))
    return math.sqrt(total)


def heldout_nll_per_cell(model, test_obs, S):
    total, cells = 0.0, 0
    for _, k, name, blocks, _, kind, params in model.terms():
        vhat = tensor.reconstruct_marginal(S, blocks, k)
        total += likelihoods.nll(kind, test_obs[name].values, vhat, params)
        cells += vhat.size
    return total / cells


# ------------------------------------------------------------ operations

def fit(spec, observations, max_sweeps=None):
    """build_model and train, optionally cut at max_sweeps; returns (model, report, s)."""
    cfg = spec.solver if max_sweeps is None else dataclasses.replace(
        spec.solver, max_sweeps=max_sweeps)
    start = time.perf_counter()
    model = mmodel.build_model(spec, observations)
    report = solver.train(model, cfg)
    return model, report, time.perf_counter() - start


class Run:
    """One workload instance bound to its loaded cohort and frozen targets."""

    def __init__(self, workload, seed, setup, work_dir, targets):
        self.workload = workload
        self.setup = setup
        self.spec = workload.spec(seed)
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.loaded = self.fit_obs = self.test_obs = None
        pool = targets[workload.name]
        frozen = pool["instances"][str(seed)]
        self.scale = {key: pool["median"][key] / frozen[key] if key in frozen else 1.0
                      for key in WORK_KEYS}
        self.target = frozen.get("target")
        self.parent_sweep = frozen.get("ref_sweeps")
        self.target_sweep = None
        self.model = None
        self.reference_report = None
        self.projection = None
        self.quality = {}

    def ingest(self):
        """load_observations of the manifest written in set-up, checked against the
        digest of the generated cohort."""
        # free the last task's cohort and the model built on it first
        self.loaded = self.fit_obs = self.test_obs = self.model = self.projection = None
        start = time.perf_counter()
        loaded = data_io.load_observations(self.setup.manifest)
        seconds = time.perf_counter() - start
        self.ledger.record("load_observations", check_ingest(loaded, self.setup.digest))
        n_fit, n = self.workload.n_fit, self.workload.n_patients
        self.loaded = loaded
        self.fit_obs = (loaded if n_fit == n
                        else data_io._take_patients(loaded, list(range(n_fit))))
        self.test_obs = data_io._take_patients(loaded, list(range(n_fit, n)))
        return seconds

    def fit(self, max_sweeps=None):
        return fit(self.spec, self.fit_obs, max_sweeps)

    def reference_fit(self):
        """Untimed fit to the solver's own stop; finds the target sweep k*,
        the first sweep at or below the target."""
        self.model, self.reference_report, _ = self.fit()
        problems = check_fit(self.model, self.reference_report)
        self.target_sweep = target_sweep(self.reference_report, self.target)
        if self.target_sweep is None:
            problems.append(f"never reached target {self.target!r}")
        self.ledger.record("reference fit", problems)

    def fit_to_target(self):
        """The timed fit: build_model + train with max_sweeps = k*.

        The first call tries the parent's k*. A fit's trajectory up to
        max_sweeps does not depend on max_sweeps, so when that fit first
        reaches the target at its last sweep it is a timed fit to target,
        and when it reaches it earlier its loss_trace gives k*. Only when it
        does not reach the target does the reference fit run.
        """
        if self.target_sweep is None:
            model, report, seconds = self.fit(self.parent_sweep)
            self.target_sweep = target_sweep(report, self.target)
            if self.target_sweep == self.parent_sweep:
                self.ledger.record("fit to target", check_fit(model, report, self.target))
                return model, seconds
            if self.target_sweep is None:
                self.reference_fit()
        model, report, seconds = self.fit(self.target_sweep)
        self.ledger.record("fit to target", check_fit(model, report, self.target))
        return model, seconds

    def project(self):
        start = time.perf_counter()
        S = mmodel.project_patients(self.model, self.test_obs)
        seconds = time.perf_counter() - start
        n_rows = len(next(iter(self.test_obs.values())).shared_ids)
        self.ledger.record("project", check_projection(S, n_rows, self.spec.rank))
        self.projection = S
        return seconds

    def analyse(self):
        """Correspondences from every anchor item of the first tensor's first
        modality that the fitted cohort observes (an unobserved anchor has no
        base population), the phenotypes and the diversity metrics."""
        first = self.spec.tensors[0]
        anchor, target = first.modalities[:2]
        obs = self.fit_obs[anchor]
        anchors = [item for j, item in enumerate(obs.item_ids) if np.any(obs.values[:, j] > 0)]
        start = time.perf_counter()
        rows = [analysis.extract_correspondence(self.model, first.id, anchor, item, target)
                for item in anchors]
        phenotypes = analysis.extract_phenotypes(self.model)
        metrics = {"cosine": analysis.cosine_similarity_metric(self.model.factors),
                   "jaccard@10": analysis.jaccard_at_k(phenotypes, k=10),
                   "sparsity": analysis.sparsity(self.model.factors)}
        seconds = time.perf_counter() - start
        for item, row in zip(anchors, rows):
            self.ledger.record(f"correspondence {anchor}:{item}", check_correspondence(row))
        self.ledger.record("phenotypes", check_phenotypes(phenotypes, self.spec.rank,
                                                          list(self.model.factors)))
        for name, value in metrics.items():
            self.ledger.record(f"metric {name}", check_unit_interval(name, value))
        return seconds

    def save_load(self):
        path = os.path.join(self.work_dir, "model")
        start = time.perf_counter()
        mmodel.save_model(self.model, path)
        loaded = mmodel.load_model(path, self.fit_obs)
        seconds = time.perf_counter() - start
        problems = [] if np.array_equal(loaded.shared, self.model.shared) else ["shared differs"]
        problems += [f"{name} differs" for name, U in self.model.factors.items()
                     if not np.array_equal(loaded.factors[name], U)]
        self.ledger.record("save/load", problems)
        return seconds

    def cross_validate(self):
        start = time.perf_counter()
        result = evaluate.five_fold_cv(self.loaded, self.setup.labels, self.spec,
                                       self.spec.solver, seed=CV_SEED)
        seconds = time.perf_counter() - start
        self.ledger.record("five_fold_cv", check_cv(result))
        self.quality["cv_auprc"] = result["mean"]
        return seconds

    def downstream(self):
        """Stages after the fit, on self.model; returns {stage: seconds}.

        Only a workload with held-out patients projects them and goes on to
        the analysis and the save/load round trip."""
        if self.workload.n_fit == self.workload.n_patients:
            return {}
        return {"project_s": self.project(), "analysis_s": self.analyse(),
                "save_load_s": self.save_load()}

    def projection_quality(self):
        self.quality["project_nll"] = heldout_nll_per_cell(self.model, self.test_obs,
                                                           self.projection)

    def fit_quality(self):
        """Quality at the reference fit, the solver's own stop."""
        model, report = self.model, self.reference_report
        f_stop = report.loss_trace[-1][1]
        f_true = planted_objective(self.spec, self.fit_obs, self.setup.truth,
                                   self.workload.n_fit)
        initial = mmodel.build_model(self.spec, self.fit_obs)
        self.quality.update({
            "fit_gap": (f_stop - f_true) / abs(f_true),
            "fit_pg": projected_gradient_norm(model) / projected_gradient_norm(initial),
            "stop_objective": f_stop, "planted_objective": f_true,
            "stop_sweep": report.sweeps_run, "target_sweep": self.target_sweep})

    def task(self):
        """One closed-loop operation; returns its stage times and `task_s`.

        task_s is the sum of the stage times, each rescaled to the pool's
        median instance where the parent's work on it is frozen.
        """
        stages = {"ingest_s": self.ingest()}
        if self.workload.fits_to_target:
            self.model, stages["fit_target_s"] = self.fit_to_target()
            stages.update(self.downstream())
        else:
            stages["cv_s"] = self.cross_validate()
        rescaled = {"ingest_s": self.scale["triplets"],
                    "fit_target_s": self.scale["ref_objective_calls"],
                    "project_s": self.scale["ref_project_calls"],
                    "cv_s": self.scale["ref_erf_work"]}
        stages["task_s"] = sum(v * rescaled.get(k, 1.0) for k, v in stages.items())
        return stages
