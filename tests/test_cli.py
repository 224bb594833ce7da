import contextlib
import copy
import dataclasses
import csv
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from margfact import (ConfigurationError, CorrespondenceRow, GaussianParams, ObservationKind,
                      ObservationMatrix, Phenotype, build_model, evaluate, extract_phenotypes,
                      five_fold_cv, save_model, save_observations, synth_generate)
from margfact.analysis import top_k_items
from margfact.cli import _parse_modality_token, main
from margfact.model import InteractionTensorSpec, ModelSpec, SolverConfig
from margfact.regularizers import RegularizerConfig

from test_evaluate import FAILED_FOLDS


def run(*argv):
    return main(list(argv))


def synth_dataset(out_dir, seed=0, patients=25):
    code = run("synth", "--rank", "2", "--patients", str(patients),
               "--modality", "A:4:integer:poisson",
               "--modality", "B:5:integer:poisson",
               "--seed", str(seed), "--out", str(out_dir))
    assert code == 0
    return os.path.join(str(out_dir), "manifest.json")


def write_quick_spec(path, max_sweeps=20):
    spec = ModelSpec(rank=2,
                     tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")],
                     regularizer=RegularizerConfig(gamma=0.0, beta=0.0),
                     init_seed=0,
                     solver=SolverConfig(max_sweeps=max_sweeps, tol=1e-8))
    spec.save(str(path))
    return str(path)


def read_bytes_by_name(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                out[name] = fh.read()
    return out


class TestSynth:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = tmp_path / "data"
        manifest = synth_dataset(out)
        assert os.path.exists(manifest)
        for name in ("A.csv", "A.vocab.txt", "B.csv", "B.vocab.txt", "model_spec.json"):
            assert (out / name).exists()
        for name in ("shared.csv", "A.csv", "B.csv"):
            assert (out / "truth" / name).exists()

    def test_byte_identical_across_runs(self, tmp_path):
        synth_dataset(tmp_path / "one", seed=7)
        synth_dataset(tmp_path / "two", seed=7)
        assert read_bytes_by_name(tmp_path / "one") == read_bytes_by_name(tmp_path / "two")

    def test_different_seeds_differ(self, tmp_path):
        synth_dataset(tmp_path / "one", seed=1)
        synth_dataset(tmp_path / "two", seed=2)
        a = read_bytes_by_name(tmp_path / "one")
        b = read_bytes_by_name(tmp_path / "two")
        assert a["A.csv"] != b["A.csv"]

    def test_bad_modality_token_usage_error(self, tmp_path):
        code = run("synth", "--modality", "A:4:integer", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_invalid_kind_pair_usage_error(self, tmp_path, capsys):
        code = run("synth", "--modality", "A:4:integer:gaussian", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_flag_usage_error(self, tmp_path):
        code = run("synth", "--modality", "A:4:integer:poisson",
                   "--out", str(tmp_path / "x"), "--no-such-flag")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("--patients", "0"), ("--patients", "-5"), ("--sparsity", "2"), ("--scale", "-1"),
        ("--modality", "B:0:integer:poisson")])
    def test_out_of_range_usage_error(self, tmp_path, capsys, args):
        code = run("synth", "--modality", "A:4:integer:poisson", *args,
                   "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("names", [("A", "A"), ("A", "B", "B")])
    def test_repeated_modality_usage_error(self, tmp_path, capsys, names):
        sizes = iter(range(4, 10))
        tokens = [x for name in names
                  for x in ("--modality", f"{name}:{next(sizes)}:integer:poisson")]
        code = run("synth", *tokens, "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()


    def test_anchor_its_partner_cannot_hold_usage_error(self, tmp_path, capsys):
        code = run("synth", "--modality", "A:4:real:gaussian", "--modality",
                   "B:3:integer:poisson", "--sigma2", "1.0", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert all(word in err for word in ("'A'", "real", "gaussian", "'B'", "integer",
                                            "poisson"))
        assert not (tmp_path / "x").exists()

    def test_anchor_drawn_under_another_law_is_usage_error(self, tmp_path, capsys):
        # a binary anchor fits a Poisson tensor, but would be drawn and
        # recorded as poisson-binary instead of the gaussian-binary it names
        code = run("synth", "--modality", "A:4:binary:gaussian", "--modality",
                   "B:3:integer:poisson", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert all(word in err for word in ("'A'", "binary", "gaussian", "'B'", "poisson"))
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_repeated_modality_in_spec_usage_error(self, tmp_path, capsys):
        manifest = synth_dataset(tmp_path / "data")
        spec = json.loads(open(write_quick_spec(tmp_path / "spec.json")).read())
        spec["tensors"][0]["modalities"] = ["A", "A"]
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        capsys.readouterr()
        code = run("train", "--manifest", manifest, "--spec", str(tmp_path / "spec.json"),
                   "--out", str(tmp_path / "model"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "model").exists()

    def test_model_directory_contents(self, tmp_path):
        manifest = synth_dataset(tmp_path / "data")
        spec = write_quick_spec(tmp_path / "spec.json")
        code = run("train", "--manifest", manifest, "--spec", spec,
                   "--out", str(tmp_path / "model"))
        assert code == 0
        names = sorted(os.listdir(tmp_path / "model"))
        assert names == ["A.csv", "B.csv", "shared.csv", "spec.json", "trace.json"]

    def test_byte_identical_reruns(self, tmp_path):
        manifest = synth_dataset(tmp_path / "data")
        spec = write_quick_spec(tmp_path / "spec.json")
        for out in ("m1", "m2"):
            assert run("train", "--manifest", manifest, "--spec", spec,
                       "--out", str(tmp_path / out)) == 0
        assert read_bytes_by_name(tmp_path / "m1") == read_bytes_by_name(tmp_path / "m2")

    @pytest.mark.parametrize("flag", ["--seed", "--max-sweeps"])
    def test_negative_override_usage_error(self, tmp_path, capsys, flag):
        manifest = synth_dataset(tmp_path / "data")
        spec = write_quick_spec(tmp_path / "spec.json")
        capsys.readouterr()
        code = run("train", "--manifest", manifest, "--spec", spec,
                   "--out", str(tmp_path / "model"), flag, "-1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "model").exists()

    def test_missing_manifest_is_ingestion_error(self, tmp_path):
        spec = write_quick_spec(tmp_path / "spec.json")
        code = run("train", "--manifest", str(tmp_path / "nope.json"),
                   "--spec", spec, "--out", str(tmp_path / "model"))
        assert code == 3

    def test_malformed_triplets_is_ingestion_error(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("wrong,header,here\n")
        (d / "A.vocab.txt").write_text("x\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", '
            '"kind": "poisson-integer", "vocab_path": "A.vocab.txt"}]}')
        spec = write_quick_spec(tmp_path / "spec.json")
        code = run("train", "--manifest", str(d / "manifest.json"),
                   "--spec", spec, "--out", str(tmp_path / "model"))
        assert code == 3

    def test_non_finite_objective_is_numeric_error(self, tmp_path, capsys):
        # a finite value whose squared residual overflows: NaN and inf
        # themselves are rejected at ingestion (exit 3, below)
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("patient_id,item_id,value\np0,x,1e200\np1,x,1.0\n")
        (d / "A.vocab.txt").write_text("x\ny\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", '
            '"kind": "gaussian-real", "vocab_path": "A.vocab.txt"}]}')
        spec = ModelSpec(rank=1,
                         tensors=[InteractionTensorSpec("t0", ["A"], "gaussian", 1.0)],
                         init_seed=0, solver=SolverConfig(max_sweeps=2))
        spec.save(str(tmp_path / "spec.json"))
        with warnings.catch_warnings():  # numpy's overflow warning is no second line
            warnings.simplefilter("error")
            code = run("train", "--manifest", str(d / "manifest.json"),
                       "--spec", str(tmp_path / "spec.json"),
                       "--out", str(tmp_path / "model"))
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_ingestion_error(self, tmp_path, value):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text(f"patient_id,item_id,value\np0,x,{value}\np1,x,1.0\n")
        (d / "A.vocab.txt").write_text("x\ny\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", '
            '"kind": "gaussian-real", "vocab_path": "A.vocab.txt"}]}')
        spec = ModelSpec(rank=1,
                         tensors=[InteractionTensorSpec("t0", ["A"], "gaussian", 1.0)],
                         init_seed=0, solver=SolverConfig(max_sweeps=2))
        spec.save(str(tmp_path / "spec.json"))
        code = run("train", "--manifest", str(d / "manifest.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "--out", str(tmp_path / "model"))
        assert code == 3
        assert not os.path.exists(tmp_path / "model")


ABSURD_RANK = 10 ** 12  # numpy refuses the 218 TiB factor before allocating any of it


class TestAbsurdRank:
    def assert_out_of_memory(self, code, capsys, out):
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run("synth", "--rank", str(ABSURD_RANK), "--patients", "30",
                   "--modality", "A:4:integer:poisson", "--out", str(out))
        self.assert_out_of_memory(code, capsys, out)

    def test_train(self, tmp_path, capsys):
        manifest = synth_dataset(tmp_path / "data", patients=30)
        spec = ModelSpec.load(write_quick_spec(tmp_path / "spec.json"))
        dataclasses.replace(spec, rank=ABSURD_RANK).save(str(tmp_path / "spec.json"))
        capsys.readouterr()
        out = tmp_path / "model"
        code = run("train", "--manifest", manifest, "--spec", str(tmp_path / "spec.json"),
                   "--out", str(out))
        self.assert_out_of_memory(code, capsys, out)


@pytest.fixture()
def trained(tmp_path):
    manifest = synth_dataset(tmp_path / "data", seed=3, patients=30)
    spec = write_quick_spec(tmp_path / "spec.json", max_sweeps=40)
    assert run("train", "--manifest", manifest, "--spec", spec,
               "--out", str(tmp_path / "model")) == 0
    return manifest, str(tmp_path / "model"), tmp_path


class TestCorrespondence:
    def test_csv_output(self, trained):
        manifest, model_dir, tmp_path = trained
        out = str(tmp_path / "corr.csv")
        code = run("correspondence", "--manifest", manifest, "--model", model_dir,
                   "--anchor", "A:A_0", "--target", "B", "--top", "3", "--out", out)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "anchor_modality,anchor_item,target_modality,target_item,score,rank"
        assert len(lines) == 4
        scores = [float(line.split(",")[4]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert [line.split(",")[5] for line in lines[1:]] == ["1", "2", "3"]

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_top_below_one_usage_error(self, trained, capsys, top):
        manifest, model_dir, tmp_path = trained
        out = tmp_path / "corr.csv"
        code = run("correspondence", "--manifest", manifest, "--model", model_dir,
                   "--anchor", "A:A_0", "--target", "B", "--top", top, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_unknown_target_modality_usage_error(self, trained):
        manifest, model_dir, tmp_path = trained
        code = run("correspondence", "--manifest", manifest, "--model", model_dir,
                   "--anchor", "A:A_0", "--target", "Zz",
                   "--out", str(tmp_path / "c.csv"))
        assert code == 2


@pytest.mark.parametrize("command", [
    ("phenotypes",),
    ("correspondence", "--anchor", "A:A_0", "--target", "B"),
])
def test_model_against_other_manifest_is_ingestion_error(trained, command):
    _, model_dir, tmp_path = trained
    other = tmp_path / "other"
    assert run("synth", "--rank", "2", "--patients", "30",
               "--modality", "A:4:integer:poisson", "--modality", "B:6:integer:poisson",
               "--seed", "3", "--out", str(other)) == 0
    code = run(*command, "--manifest", str(other / "manifest.json"), "--model", model_dir,
               "--out", str(tmp_path / "out"))
    assert code == 3


class TestPhenotypes:
    def test_json_report(self, trained):
        manifest, model_dir, tmp_path = trained
        out = str(tmp_path / "phen.json")
        code = run("phenotypes", "--manifest", manifest, "--model", model_dir,
                   "--out", out)
        assert code == 0
        doc = json.load(open(out))
        assert [p["phenotype"] for p in doc] == [0, 1]
        for p in doc:
            assert set(p["items"]) == {"A", "B"}
            for items in p["items"].values():
                weights = [e["weight"] for e in items]
                assert all(w > 0 for w in weights)
                assert sum(weights) <= 1.0 + 1e-9


    @pytest.mark.parametrize("threshold", ["2", "nan", "-1"])
    def test_threshold_outside_unit_interval_usage_error(self, trained, capsys, threshold):
        manifest, model_dir, tmp_path = trained
        out = tmp_path / "phen.json"
        code = run("phenotypes", "--manifest", manifest, "--model", model_dir,
                   "--threshold", threshold, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()


class TestMetrics:
    def test_rank_one_model_usage_error(self, tmp_path, capsys):
        assert run("synth", "--rank", "1", "--patients", "20",
                   "--modality", "A:4:integer:poisson", "--modality", "B:5:integer:poisson",
                   "--out", str(tmp_path / "data")) == 0
        manifest = str(tmp_path / "data" / "manifest.json")
        assert run("train", "--manifest", manifest,
                   "--spec", str(tmp_path / "data" / "model_spec.json"),
                   "--max-sweeps", "3", "--out", str(tmp_path / "model")) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.json"
        code = run("metrics", "--manifest", manifest, "--model", str(tmp_path / "model"),
                   "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_basic_metrics(self, trained):
        manifest, model_dir, tmp_path = trained
        out = str(tmp_path / "metrics.json")
        code = run("metrics", "--manifest", manifest, "--model", model_dir, "--out", out)
        assert code == 0
        doc = json.load(open(out))
        assert set(doc) == {"sparsity", "cosine_similarity", "jaccard_at_k", "k"}
        assert 0.0 <= doc["sparsity"] <= 1.0
        assert 0.0 <= doc["cosine_similarity"] <= 0.5

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_usage_error(self, trained, capsys, k):
        manifest, model_dir, tmp_path = trained
        out = tmp_path / "metrics.json"
        code = run("metrics", "--manifest", manifest, "--model", model_dir, "--k", k,
                   "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_meaningfulness_with_annotations(self, trained):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        with open(ann, "w") as fh:
            fh.write("anchor_item,target_item,score\n")
            for i in range(4):
                for j in range(5):
                    fh.write(f"A_{i},B_{j},2\n")
        out = str(tmp_path / "metrics.json")
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--annotations", str(ann), "--tensor", "t0",
                   "--anchor-modality", "A", "--target", "B", "--out", out)
        assert code == 0
        doc = json.load(open(out))
        # every target item is annotated fully relevant, so every anchor row
        # with any mass must score exactly 2; all-zero rows report null
        scored = [v for v in doc["meaningfulness"].values() if v is not None]
        assert scored
        assert all(v == pytest.approx(2.0) for v in scored)

    def test_annotations_without_tensor_pick_the_tensor_of_both(self, trained):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        ann.write_text("anchor_item,target_item,score\n"
                       + "".join(f"A_{i},B_{j},{(i + j) % 3}\n" for i in range(4) for j in range(5)))
        docs = []
        for tensor in ([], ["--tensor", "t0"]):
            out = tmp_path / f"metrics{len(tensor)}.json"
            code = run("metrics", "--manifest", manifest, "--model", model_dir,
                       "--annotations", str(ann), *tensor,
                       "--anchor-modality", "A", "--target", "B", "--out", str(out))
            assert code == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0] == docs[1] and len(docs[0]["meaningfulness"]) == 4

    @pytest.mark.parametrize("tensor", [["--tensor", "t9"], []])
    def test_empty_annotations_still_need_a_tensor(self, trained, capsys, tensor):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        ann.write_text("anchor_item,target_item,score\n")
        out = tmp_path / "metrics.json"
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--annotations", str(ann), *tensor,
                   "--anchor-modality", "A", "--target", "Zz", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--anchor-modality", "--target"])
    def test_annotations_without_modality_flag_usage_error(self, trained, capsys, missing):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        ann.write_text("anchor_item,target_item,score\nA_0,B_0,2\n")
        flags = {"--anchor-modality": "A", "--target": "B"}
        del flags[missing]
        out = tmp_path / "metrics.json"
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--annotations", str(ann), *[x for kv in flags.items() for x in kv],
                   "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --annotations needs {missing}\n"
        assert not out.exists()

    def test_duplicate_annotation_is_ingestion_error(self, trained, capsys):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        ann.write_text("anchor_item,target_item,score\nA_0,B_0,2\nA_0,B_0,0\n")
        out = tmp_path / "m.json"
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--annotations", str(ann), "--anchor-modality", "A", "--target", "B",
                   "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ingestion error: ") and err.count("\n") == 1
        assert "ann.csv:3: duplicate annotation" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-0.5", "nan"])
    def test_bad_factor_entry_is_ingestion_error(self, trained, value):
        manifest, model_dir, tmp_path = trained
        path = os.path.join(model_dir, "A.csv")
        with open(path) as fh:
            header, first, *rest = fh.read().splitlines()
        cells = first.split(",")
        cells[1] = value
        with open(path, "w") as fh:
            fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert not os.path.exists(tmp_path / "m.json")

    def test_bad_annotation_file_is_ingestion_error(self, trained):
        manifest, model_dir, tmp_path = trained
        ann = tmp_path / "ann.csv"
        ann.write_text("anchor_item,target_item,score\nA_0,B_0,7\n")
        code = run("metrics", "--manifest", manifest, "--model", model_dir,
                   "--annotations", str(ann), "--tensor", "t0",
                   "--anchor-modality", "A", "--target", "B",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3


def evaluate_inputs(tmp_path):
    """A 30-patient dataset, a quick spec and a labels file with 10 positives."""
    manifest = synth_dataset(tmp_path / "data", seed=5, patients=30)
    spec = write_quick_spec(tmp_path / "spec.json", max_sweeps=5)
    rng = np.random.default_rng(0)
    labels = np.zeros(30, dtype=int)
    labels[rng.choice(30, size=10, replace=False)] = 1
    with open(tmp_path / "labels.csv", "w") as fh:
        fh.write("patient_id,label\n")
        for i, y in enumerate(labels):
            fh.write(f"p{i},{y}\n")
    return ("--manifest", manifest, "--labels", str(tmp_path / "labels.csv"), "--spec", spec)


class TestEvaluate:
    def test_cv_report(self, tmp_path):
        out = str(tmp_path / "eval.json")
        code = run("evaluate", *evaluate_inputs(tmp_path), "--out", out)
        assert code == 0
        doc = json.load(open(out))
        assert len(doc["folds"]) == 5
        assert 0.0 <= doc["mean"] <= 1.0

    @pytest.mark.parametrize("folds", ["0", "1", "-1"])
    def test_fewer_than_two_folds_usage_error(self, tmp_path, capsys, folds):
        out = tmp_path / "eval.json"
        code = run("evaluate", *evaluate_inputs(tmp_path), "--folds", folds, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("failure, first_words",
                             [("raises", "numeric failure: boom"), ("dies", "out of memory: ")])
    def test_failed_fold_exits_4_with_one_line(self, tmp_path, capfd, monkeypatch, failure,
                                               first_words):
        args = evaluate_inputs(tmp_path)
        monkeypatch.setattr(evaluate, "train", FAILED_FOLDS[failure][0])
        capfd.readouterr()
        out = tmp_path / "eval.json"
        code = run("evaluate", *args, "--out", str(out))
        assert code == 4
        err = capfd.readouterr().err  # the workers' file descriptors too
        assert err.startswith(first_words) and err.count("\n") == 1
        assert not out.exists()

    def test_missing_label_is_ingestion_error(self, tmp_path):
        args = evaluate_inputs(tmp_path)
        (tmp_path / "labels.csv").write_text("patient_id,label\np0,1\n")
        code = run("evaluate", *args, "--out", str(tmp_path / "eval.json"))
        assert code == 3

    def test_duplicate_label_is_ingestion_error(self, tmp_path, capsys):
        args = evaluate_inputs(tmp_path)
        with open(tmp_path / "labels.csv", "a") as fh:
            fh.write("p0,1\n")
        capsys.readouterr()
        out = tmp_path / "eval.json"
        code = run("evaluate", *args, "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ingestion error: ") and err.count("\n") == 1
        assert "labels.csv:32: duplicate label for patient 'p0' (first on line 2)" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A synthesized dataset plus a valid spec: (data dir, manifest doc, spec doc)."""
    base = tmp_path_factory.mktemp("malformed")
    data = base / "data"
    manifest = synth_dataset(data)
    spec = write_quick_spec(base / "spec.json")
    with open(manifest) as fh:
        manifest_doc = json.load(fh)
    with open(spec) as fh:
        spec_doc = json.load(fh)
    return data, manifest_doc, spec_doc


def train_on(dataset, out, manifest_text=None, spec_text=None):
    """Run `train` into out with the dataset's manifest and spec, either
    replaced by the given text; returns the exit code and what was printed to
    stderr. The case manifest sits beside the data, as its paths are relative."""
    data, manifest_doc, spec_doc = dataset
    manifest, spec = data / "case_manifest.json", data / "case_spec.json"
    manifest.write_text(json.dumps(manifest_doc) if manifest_text is None else manifest_text)
    spec.write_text(json.dumps(spec_doc) if spec_text is None else spec_text)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run("train", "--manifest", str(manifest), "--spec", str(spec),
                   "--out", str(out))
    return code, stderr.getvalue()


def edited(doc, edit):
    """The JSON text of a copy of doc after edit(copy); cut short when edit is None."""
    if edit is None:
        return json.dumps(doc)[:-1]
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc)


MALFORMED_MANIFESTS = {
    "bad kind token": lambda m: m["modalities"][0].update(kind="poisson-count"),
    "missing modalities": lambda m: m.pop("modalities"),
    "missing vocab_path": lambda m: m["modalities"][0].pop("vocab_path"),
    "modalities not a list": lambda m: m.update(modalities=m["modalities"][0]),
    "patients not a list": lambda m: m.update(patients="p0"),
    "invalid JSON": None,
}
MALFORMED_SPECS = {
    "invalid JSON": None,
    "missing tensors": lambda s: s.pop("tensors"),
    "rank not a number": lambda s: s.update(rank="two"),
    "tensor without id": lambda s: s["tensors"][0].pop("id"),
    "tol not a number": lambda s: s["solver"].update(tol="x"),
}


def assert_ingestion_refusal(code, capsys, out, *words):
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ingestion error: ") and err.count("\n") == 1
    assert all(word in err for word in words), err
    assert not os.path.exists(out)


class TestUnfittableCohort:
    """Cohorts that cannot be aligned or fitted are refused at ingestion."""

    def test_patients_list_repeating_an_id(self, dataset, tmp_path):
        def repeat_p0(m):
            m["patients"].insert(2, "p0")

        out = tmp_path / "model"
        code, stderr = train_on(dataset, out, manifest_text=edited(dataset[1], repeat_p0))
        assert code == 3 and stderr.count("\n") == 1
        assert stderr.startswith("ingestion error: ")
        assert "'patients' entry 3: duplicate patient id 'p0' (first at entry 1)" in stderr
        assert not out.exists()

    def test_no_patients(self, tmp_path, capsys):
        (tmp_path / "A.csv").write_text("patient_id,item_id,value\n")
        (tmp_path / "A.vocab.txt").write_text("x\ny\n")
        (tmp_path / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", '
            '"kind": "poisson-integer", "vocab_path": "A.vocab.txt"}]}')
        spec = ModelSpec(rank=1, tensors=[InteractionTensorSpec("t0", ["A"], "poisson")])
        spec.save(str(tmp_path / "spec.json"))
        out = tmp_path / "model"
        code = run("train", "--manifest", str(tmp_path / "manifest.json"),
                   "--spec", str(tmp_path / "spec.json"), "--out", str(out))
        assert_ingestion_refusal(code, capsys, out, "manifest.json: no patients")

    @pytest.fixture()
    def empty_vocabulary(self, tmp_path):
        """A manifest whose modality B has no items, and a model saved on it."""
        kind = ObservationKind("poisson", "integer")
        patients = ["p0", "p1", "p2"]
        obs = {"A": ObservationMatrix("A", patients, ["a0", "a1"], kind, np.eye(3, 2)),
               "B": ObservationMatrix("B", patients, [], kind, np.zeros((3, 0)))}
        manifest = save_observations(obs, tmp_path / "data")
        spec = ModelSpec(rank=2, tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")])
        spec.save(str(tmp_path / "spec.json"))
        save_model(build_model(spec, obs), str(tmp_path / "model"))
        return manifest, tmp_path

    @pytest.mark.parametrize("command", ["train", "metrics", "phenotypes"])
    def test_modality_with_an_empty_vocabulary(self, empty_vocabulary, capsys, command):
        manifest, tmp_path = empty_vocabulary
        out = tmp_path / "out"
        source = (["--spec", str(tmp_path / "spec.json")] if command == "train"
                  else ["--model", str(tmp_path / "model")])
        code = run(command, "--manifest", manifest, *source, "--out", str(out))
        assert_ingestion_refusal(code, capsys, out, "B.vocab.txt", "empty vocabulary")


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(MALFORMED_MANIFESTS))
    def test_manifest_is_ingestion_error(self, dataset, tmp_path, case):
        code, stderr = train_on(dataset, tmp_path / "model",
                                manifest_text=edited(dataset[1], MALFORMED_MANIFESTS[case]))
        assert code == 3
        assert stderr.startswith("ingestion error: ") and stderr.count("\n") == 1
        assert "case_manifest.json" in stderr

    @pytest.mark.parametrize("case", list(MALFORMED_SPECS))
    def test_spec_exits_cleanly(self, dataset, tmp_path, case):
        code, stderr = train_on(dataset, tmp_path / "model",
                                spec_text=edited(dataset[2], MALFORMED_SPECS[case]))
        assert code in (2, 3)
        assert stderr.count("\n") == 1 and "case_spec.json" in stderr

    @pytest.mark.parametrize("name", ["shared", "../esc", "A"])
    def test_manifest_modality_name_is_ingestion_error(self, dataset, tmp_path, name):
        def rename_or_repeat(m):  # "A" names the first modality twice
            m["modalities"][1 if name == "A" else 0]["name"] = name

        code, stderr = train_on(dataset, tmp_path / "model",
                                manifest_text=edited(dataset[1], rename_or_repeat))
        assert code == 3
        assert stderr.startswith("ingestion error: ") and stderr.count("\n") == 1
        assert "case_manifest.json" in stderr

    def test_directory_as_manifest_is_ingestion_error(self, tmp_path, capsys):
        spec = write_quick_spec(tmp_path / "spec.json")
        code = run("train", "--manifest", str(tmp_path), "--spec", spec,
                   "--out", str(tmp_path / "model"))
        assert code == 3
        assert capsys.readouterr().err.startswith("ingestion error: ")

    def test_directory_as_report_is_usage_error(self, trained, capsys):
        manifest, model_dir, tmp_path = trained
        code = run("phenotypes", "--manifest", manifest, "--model", model_dir,
                   "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: cannot write ")


NOT_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                       st.lists(st.integers(), max_size=2))
NOT_NUMBER = st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
                       st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False))
KINDS = {"poisson-integer", "poisson-binary", "gaussian-real", "gaussian-binary"}
BAD_KIND = st.one_of(st.sampled_from(["poisson-real", "gaussian-integer", "poisson",
                                      "Poisson-integer", "poisson_integer", ""]),
                     st.text(max_size=12)).filter(lambda t: t not in KINDS)
ENTRY_KEYS = ("name", "path", "kind", "vocab_path")
# what each document needs: the keys that may not be dropped, and the values
# that may not take some type
MANIFEST_FAULTS = {
    "drop": [("modalities",)] + [("modalities", i, k) for i in (0, 1) for k in ENTRY_KEYS],
    "retype": [((), NOT_STRING), (("modalities",), NOT_LIST | st.text(max_size=3)),
               (("patients",), NOT_LIST | st.text(max_size=3)),
               (("patients", 0), NOT_STRING), (("modalities", 1, "kind"), BAD_KIND)]
              + [(("modalities", i), NOT_STRING) for i in (0, 1)]
              + [(("modalities", i, k), NOT_STRING) for i in (0, 1) for k in ENTRY_KEYS],
}
SPEC_FAULTS = {
    "drop": [("rank",), ("tensors",)] + [("tensors", 0, k)
                                         for k in ("id", "modalities", "distribution")],
    "retype": [((), NOT_STRING), (("tensors",), NOT_LIST), (("tensors", 0), NOT_STRING),
               (("tensors", 0, "modalities"), NOT_LIST),
               (("tensors", 0, "distribution"), NOT_STRING),
               (("tensors", 0, "modalities", 1), NOT_STRING),
               (("rank",), NOT_NUMBER), (("seed",), NOT_NUMBER)]
              + [(("regularizer", k), NOT_NUMBER) for k in ("gamma", "alpha", "beta", "theta")]
              + [(("solver", k), NOT_NUMBER) for k in ("max_sweeps", "tol", "step0",
                                                       "log_every")],
}


@st.composite
def broken(draw, doc, faults):
    """The JSON text of doc with one fault: a required key dropped, a value of a
    type it may not take, or the text cut short."""
    how = draw(st.sampled_from(["drop", "retype", "cut"]))
    text = json.dumps(doc)
    if how == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "drop":
        path = draw(st.sampled_from(faults["drop"]))
    else:
        path, wrong = draw(st.sampled_from(faults["retype"]))
        value = draw(wrong)
        if not path:
            return json.dumps(value)
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if how == "drop":
        del node[last]
    else:
        node[last] = value
    return json.dumps(doc)


MALFORMED_FUZZ = settings(max_examples=150, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestMalformedInputFuzz:
    @MALFORMED_FUZZ
    @given(data=st.data())
    def test_manifest_exits_2_or_3(self, dataset, tmp_path_factory, data):
        code, stderr = train_on(dataset, tmp_path_factory.mktemp("fuzz") / "model",
                                manifest_text=data.draw(broken(dataset[1], MANIFEST_FAULTS)))
        assert code in (2, 3)
        assert stderr.count("\n") == 1

    @MALFORMED_FUZZ
    @given(data=st.data())
    def test_spec_exits_2_or_3(self, dataset, tmp_path_factory, data):
        code, stderr = train_on(dataset, tmp_path_factory.mktemp("fuzz") / "model",
                                spec_text=data.draw(broken(dataset[2], SPEC_FAULTS)))
        assert code in (2, 3)
        assert stderr.count("\n") == 1


BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, "x"]
SPEC = ModelSpec(rank=2, tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")])
SYNTH_KINDS = {"A": "integer", "B": "integer"}
ROW = CorrespondenceRow("A", "a0", "B", ["b0"], np.ones(1), 1)

# every numeric setting: (field named in the error, path of its key in spec.json
# or None, a value out of its range, the call that takes the value)
SETTINGS = {
    "max_sweeps": ("max_sweeps", ("solver", "max_sweeps"), -1,
                   lambda v: SolverConfig(max_sweeps=v)),
    "tol": ("tol", ("solver", "tol"), 0.0, lambda v: SolverConfig(tol=v)),
    "step0": ("step0", ("solver", "step0"), -1e-3, lambda v: SolverConfig(step0=v)),
    "log_every": ("log_every", ("solver", "log_every"), 0, lambda v: SolverConfig(log_every=v)),
    "gamma": ("gamma", ("regularizer", "gamma"), -1.0, lambda v: RegularizerConfig(gamma=v)),
    "alpha": ("alpha", ("regularizer", "alpha"), 1.5, lambda v: RegularizerConfig(alpha=v)),
    "beta": ("beta", ("regularizer", "beta"), -0.5, lambda v: RegularizerConfig(beta=v)),
    "theta": ("theta", ("regularizer", "theta"), 1.5, lambda v: RegularizerConfig(theta=v)),
    "theta map": ("theta['A']", ("regularizer", "theta", "A"), 2.0,
                  lambda v: RegularizerConfig(theta={"A": v, "B": 0.5})),
    "rank": ("rank", ("rank",), 0, lambda v: ModelSpec(rank=v, tensors=SPEC.tensors)),
    "seed": ("seed", ("seed",), -1, lambda v: ModelSpec(rank=2, tensors=SPEC.tensors,
                                                         init_seed=v)),
    "sigma2": ("sigma2", ("tensors", 0, "sigma2"), 0.0,
               lambda v: InteractionTensorSpec("t0", ["A", "B"], "gaussian", v)),
    "gaussian sigma2": ("sigma2", None, 0.0, lambda v: GaussianParams(v, 1)),
    "gaussian t_n": ("t_n", None, 0, lambda v: GaussianParams(1.0, v)),
    "synth patients": ("patients", None, 0,
                       lambda v: synth_generate(SPEC, {"A": 3, "B": 3}, SYNTH_KINDS, v)),
    "synth size": ("size of 'A'", None, 0,
                   lambda v: synth_generate(SPEC, {"A": v, "B": 3}, SYNTH_KINDS, 5)),
    "synth sparsity": ("sparsity", None, 0.0, lambda v: synth_generate(
        SPEC, {"A": 3, "B": 3}, SYNTH_KINDS, 5, sparsity=v)),
    "synth scale": ("scale", None, 0.0, lambda v: synth_generate(
        SPEC, {"A": 3, "B": 3}, SYNTH_KINDS, 5, scale=v)),
    "--modality size": ("size", None, 0,
                        lambda v: _parse_modality_token(f"A:{v}:integer:poisson")),
    "--k": ("k", None, 0, lambda v: top_k_items(Phenotype(0, {}), v)),
    "--top": ("k", None, 0, ROW.top),
    "--folds": ("n_folds", None, 1, lambda v: five_fold_cv({}, [], SPEC, n_folds=v)),
    "--threshold": ("weight_threshold", None, 1.5, lambda v: extract_phenotypes(None, v)),
}


def spec_with(dataset, path, value):
    """The JSON text of the dataset's spec with the key at path set to value
    (a theta map, or a gaussian tensor, made first where path needs one)."""
    doc = copy.deepcopy(dataset[2])
    if path[:2] == ("regularizer", "theta") and len(path) == 3:
        doc["regularizer"]["theta"] = {"A": 0.5, "B": 0.5}
    if path[-1] == "sigma2":
        doc["tensors"][0]["distribution"] = "gaussian"
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


def assert_refused(dataset, out, spec_text, named):
    """train into out on spec_text exits 2 with one stderr line naming `named`,
    writing no model."""
    code, stderr = train_on(dataset, out, spec_text=spec_text)
    assert code == 2
    assert stderr.startswith("usage error: ") and stderr.count("\n") == 1
    assert named in stderr and "Traceback" not in stderr
    assert not out.exists()


class TestSettingsRule:
    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_nan_inf_bool_string_and_out_of_range_are_refused(self, dataset, tmp_path,
                                                               setting):
        field, path, out_of_range, call = SETTINGS[setting]
        for value in BAD_NUMBERS + [out_of_range]:
            with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be")):
                call(value)
            if path is not None:
                assert_refused(dataset, tmp_path / "model", spec_with(dataset, path, value),
                               f"{field} must be")

    @pytest.mark.parametrize("path", [("solver", "max_sweep"), ("regularizer", "gama"),
                                      ("tensors", 0, "sigma"), ("extra",)])
    def test_unknown_key_is_refused(self, dataset, tmp_path, path):
        assert_refused(dataset, tmp_path / "model", spec_with(dataset, path, 3),
                       f"unknown key {path[-1]!r}")

    def test_spec_without_tensors_is_refused(self, dataset, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one tensor"):
            ModelSpec(rank=2, tensors=[])
        assert_refused(dataset, tmp_path / "model", spec_with(dataset, ("tensors",), []),
                       "at least one tensor")

    @pytest.mark.parametrize("theta", [{"A": 0.1}, {"A": 0.1, "B": 0.2, "C": 0.3}])
    def test_theta_map_must_name_exactly_the_modalities(self, dataset, tmp_path, theta):
        with pytest.raises(ConfigurationError, match="theta"):
            ModelSpec(rank=2, tensors=SPEC.tensors, regularizer=RegularizerConfig(theta=theta))
        assert_refused(dataset, tmp_path / "model",
                       spec_with(dataset, ("regularizer", "theta"), theta), "theta")

    def test_poisson_tensor_with_sigma2_is_refused(self, dataset, tmp_path):
        with pytest.raises(ConfigurationError, match="sigma2"):
            InteractionTensorSpec("t0", ["A", "B"], "poisson", 1.0)
        assert_refused(dataset, tmp_path / "model",
                       edited(dataset[2], lambda s: s["tensors"][0].update(sigma2=1.0)), "sigma2")


def test_correspondence_csv_quotes_ids(tmp_path):
    items = {"A": ["Sodium Chloride 0.9%, Flush", '4" gauze', "plain"],
             "B": ['say "when"', "x,y", "z"]}
    rng = np.random.default_rng(1)
    patients = [f"Doe, J{i}" for i in range(12)]
    observations = {name: ObservationMatrix(name, patients, ids,
                                            ObservationKind.parse("poisson-integer"),
                                            rng.poisson(2.0, (12, 3)).astype(float))
                    for name, ids in items.items()}
    manifest = save_observations(observations, tmp_path / "data")
    spec = write_quick_spec(tmp_path / "spec.json", max_sweeps=5)
    assert run("train", "--manifest", manifest, "--spec", spec,
               "--out", str(tmp_path / "model")) == 0
    out = tmp_path / "corr.csv"
    assert run("correspondence", "--manifest", manifest, "--model", str(tmp_path / "model"),
               "--anchor", "A:" + items["A"][0], "--target", "B", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:4] == ["anchor_modality", "anchor_item", "target_modality", "target_item"]
    assert {tuple(r[:3]) for r in rows} == {("A", items["A"][0], "B")}
    assert sorted(r[3] for r in rows) == sorted(items["B"])
