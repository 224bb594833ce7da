"""Batch front door: synth / train / correspondence / phenotypes / metrics / evaluate.

Exit codes: 0 success, 2 usage, 3 ingestion, 4 numeric failure or a request
for more memory than there is.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, data_io, evaluate
from .errors import ConfigurationError, IngestionError, NumericError, check_setting
from .model import InteractionTensorSpec, ModelSpec, build_model, load_model, save_model
from .solver import train

EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_NUMERIC = 4


def _parse_modality_token(token):
    """name:size:datatype:distribution, e.g. Dx:20:binary:poisson."""
    parts = token.split(":")
    if len(parts) != 4:
        raise ConfigurationError(f"bad --modality token {token!r}: "
                                 "expected name:size:datatype:distribution")
    name, size, datatype, distribution = parts
    size = int(size) if size.isdecimal() else size  # the check refuses any other text
    check_setting(f"--modality {token!r}", "size", size, 1, integral=True)
    return name, size, datatype, distribution


def cmd_synth(args):
    specs = [_parse_modality_token(t) for t in args.modality]
    sizes = {name: size for name, size, _, _ in specs}
    if len(sizes) != len(specs):
        raise ConfigurationError("each --modality name may be given only once")
    datatypes = {name: dt for name, _, dt, _ in specs}
    # anchor = first modality; one pairwise tensor per further modality, or
    # the anchor's own tensor when it is alone
    anchor, _, anchor_type, anchor_dist = specs[0]
    tensors = []
    for i, (name, _, datatype, dist) in enumerate(specs[1:] or specs):
        modalities = [anchor] if name == anchor else [anchor, name]
        tensors.append(InteractionTensorSpec(f"t{i}", modalities, dist,
                                             args.sigma2 if dist == "gaussian" else None))
        # the anchor is drawn under its first tensor, which must carry its law;
        # synth_generate refuses every datatype a tensor's law cannot hold
        if i == 0 and dist != anchor_dist:
            raise ConfigurationError(f"anchor {anchor!r} ({anchor_type}, {anchor_dist}) cannot "
                                     f"share a {dist} tensor with {name!r} ({datatype}, {dist})")
    spec = ModelSpec(rank=args.rank, tensors=tensors, init_seed=args.seed)
    observations, truth = data_io.synth_generate(
        spec, sizes, datatypes, args.patients,
        sparsity=args.sparsity, scale=args.scale, seed=args.seed)
    data_io.save_observations(observations, args.out)
    spec.save(os.path.join(args.out, "model_spec.json"))
    data_io.save_factors(os.path.join(args.out, "truth"), truth.shared,
                         truth.modality_factors, observations)
    print(f"wrote synthetic dataset to {args.out}")
    return 0


def _load_model(args):
    return load_model(args.model, data_io.load_observations(args.manifest))


def cmd_train(args):
    observations = data_io.load_observations(args.manifest)
    spec = ModelSpec.load(args.spec)
    # replace() re-runs the spec's validation on the overrides
    solver_cfg = (spec.solver if args.max_sweeps is None
                  else dataclasses.replace(spec.solver, max_sweeps=args.max_sweeps))
    spec = dataclasses.replace(spec, solver=solver_cfg,
                               init_seed=spec.init_seed if args.seed is None else args.seed)
    model = build_model(spec, observations)
    report = train(model, spec.solver)
    save_model(model, args.out)
    print(f"trained {len(model.factors)} modality factors + shared in "
          f"{report.sweeps_run} sweeps ({report.stop_reason}); model saved to {args.out}")
    return 0


def cmd_correspondence(args):
    model = _load_model(args)
    anchor_modality, _, anchor_item = args.anchor.partition(":")
    row = analysis.extract_correspondence(model, args.tensor, anchor_modality,
                                          anchor_item, args.target)
    out_path = args.out or "correspondence.csv"
    data_io.write_correspondence(out_path, row, args.top)
    print(f"wrote top-{args.top} correspondence to {out_path}")
    return 0


def cmd_phenotypes(args):
    model = _load_model(args)
    phenotypes = analysis.extract_phenotypes(model, weight_threshold=args.threshold)
    doc = [{"phenotype": p.index,
            "items": {name: [{"item": item, "weight": weight} for item, weight in items]
                      for name, items in p.items.items()}}
           for p in phenotypes]
    out_path = args.out or "phenotypes.json"
    data_io.write_json(out_path, doc)
    print(f"wrote {len(doc)} phenotypes to {out_path}")
    return 0


def cmd_metrics(args):
    if args.annotations:
        for flag, value in (("--anchor-modality", args.anchor_modality),
                            ("--target", args.target)):
            if value is None:
                raise ConfigurationError(f"--annotations needs {flag}")
    model = _load_model(args)
    phenotypes = analysis.extract_phenotypes(model)
    doc = {"sparsity": analysis.sparsity(model.factors),
           "cosine_similarity": analysis.cosine_similarity_metric(model.factors),
           "jaccard_at_k": analysis.jaccard_at_k(phenotypes, k=args.k),
           "k": args.k}
    if args.annotations:
        tensor = analysis.find_tensor(model, args.tensor, args.anchor_modality, args.target)
        annotations = data_io.read_annotations(args.annotations)
        meaningfulness = {}
        for anchor_item, ann in annotations.items():
            row = analysis.extract_correspondence(model, tensor.id, args.anchor_modality,
                                                  anchor_item, args.target)
            meaningfulness[anchor_item] = analysis.meaningfulness_score(row, ann)
        doc["meaningfulness"] = meaningfulness
    out_path = args.out or "metrics.json"
    data_io.write_json(out_path, doc)
    print(f"wrote metrics to {out_path}")
    return 0


def cmd_evaluate(args):
    observations = data_io.load_observations(args.manifest)
    labels = data_io.load_labels(args.labels,
                                 next(iter(observations.values())).shared_ids)
    spec = ModelSpec.load(args.spec)
    report = evaluate.five_fold_cv(observations, labels, spec, spec.solver,
                                   n_folds=args.folds, seed=args.seed)
    out_path = args.out or "evaluation.json"
    data_io.write_json(out_path, report)
    print(f"AUPRC: {report['mean']:.4f} ({report['std']:.4f}); report at {out_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="margfact",
                                     description="Hidden interaction tensor factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted factors")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--patients", type=int, default=200)
    p.add_argument("--modality", action="append", required=True,
                   help="name:size:datatype:distribution (repeatable; first is the anchor)")
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the model on a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="has no effect: set OPENBLAS_NUM_THREADS before launching")
    p.add_argument("--deterministic", action="store_true",
                   help="has no effect: reruns with one seed and one BLAS thread count "
                        "are byte-identical")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("correspondence", help="extract a correspondence row")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--anchor", required=True, help="modality:item, e.g. Dx:428")
    p.add_argument("--target", required=True)
    p.add_argument("--tensor", default=None)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_correspondence)

    p = sub.add_parser("phenotypes", help="emit the phenotype definition report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phenotypes)

    p = sub.add_parser("metrics", help="sparsity / cosine similarity / jaccard@k")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--annotations", default=None)
    p.add_argument("--tensor", default=None)
    p.add_argument("--anchor-modality", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("evaluate", help="cross-validated mortality prediction")
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # silenced, as numpy's warnings would add lines: a non-finite result
        # still raises NumericError, reported below in one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except ConfigurationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
