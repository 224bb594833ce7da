import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from margfact import (ConfigurationError, IngestionError, InteractionTensorSpec, ModelSpec,
                      ObservationKind, ObservationMatrix, binarize, load_observations,
                      save_observations, split_train_test, synth_generate)
from margfact.analysis import CorrespondenceRow
from margfact.data_io import (load_labels, read_annotations, read_factor_csv, read_json,
                              save_labels, stratified_split, write_correspondence,
                              write_factor_csv, write_json)

from helpers import make_obs


def two_modality_obs(seed=0, n=10):
    rng = np.random.default_rng(seed)
    return {
        "Dx": make_obs("Dx", (rng.uniform(size=(n, 4)) < 0.4).astype(float), "poisson", "binary"),
        "Rx": make_obs("Rx", rng.poisson(1.5, size=(n, 5)).astype(float), "poisson", "integer"),
    }


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        obs = two_modality_obs()
        manifest = save_observations(obs, tmp_path / "data")
        loaded = load_observations(manifest)
        assert set(loaded) == set(obs)
        for name in obs:
            np.testing.assert_array_equal(loaded[name].values, obs[name].values)
            assert loaded[name].item_ids == obs[name].item_ids
            assert loaded[name].shared_ids == obs[name].shared_ids
            assert loaded[name].kind == obs[name].kind

    def test_empty_triplet_file(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("patient_id,item_id,value\n")
        (d / "A.vocab.txt").write_text("x\ny\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-integer",'
            ' "vocab_path": "A.vocab.txt"}], "patients": ["p0", "p1"]}')
        loaded = load_observations(d / "manifest.json")
        np.testing.assert_array_equal(loaded["A"].values, np.zeros((2, 2)))

    @pytest.mark.parametrize("vocab,patients,message", [
        ("", '["p0", "p1"]', "item 'x' not in vocabulary"),
        ("x\n", '["p1", "p1"]', "unknown patient id 'p0'")])
    def test_unfittable_cohort_keeps_an_earlier_message(self, tmp_path, vocab, patients,
                                                        message):
        # an empty vocabulary or a repeated patient is refused after every
        # older check, so input that failed one of those fails as before
        (tmp_path / "A.csv").write_text("patient_id,item_id,value\np0,x,1\n")
        (tmp_path / "A.vocab.txt").write_text(vocab)
        (tmp_path / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-integer",'
            f' "vocab_path": "A.vocab.txt"}}], "patients": {patients}}}')
        with pytest.raises(IngestionError, match=re.escape(f"A.csv:2: {message}")):
            load_observations(tmp_path / "manifest.json")

    def test_binary_kind_violation(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("patient_id,item_id,value\np0,x,3\n")
        (d / "A.vocab.txt").write_text("x\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-binary",'
            ' "vocab_path": "A.vocab.txt"}]}')
        with pytest.raises(IngestionError, match="A.csv"):
            load_observations(d / "manifest.json")

    def test_duplicate_triplet(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("patient_id,item_id,value\np0,x,1\np0,x,2\n")
        (d / "A.vocab.txt").write_text("x\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-integer",'
            ' "vocab_path": "A.vocab.txt"}]}')
        with pytest.raises(IngestionError, match=":3"):
            load_observations(d / "manifest.json")

    def test_duplicate_vocabulary_line(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text("patient_id,item_id,value\np0,a,1\n")
        (d / "A.vocab.txt").write_text("a\nb\n\na\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-integer",'
            ' "vocab_path": "A.vocab.txt"}]}')
        with pytest.raises(IngestionError, match=r"A\.vocab\.txt:4: .*'a'"):
            load_observations(d / "manifest.json")

    @pytest.mark.parametrize("kind", ["poisson-integer", "gaussian-real"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_triplet_value(self, tmp_path, kind, value):
        d = tmp_path / "data"
        d.mkdir()
        (d / "A.csv").write_text(f"patient_id,item_id,value\np0,x,1\np1,x,{value}\n")
        (d / "A.vocab.txt").write_text("x\n")
        (d / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "%s",'
            ' "vocab_path": "A.vocab.txt"}]}' % kind)
        with pytest.raises(IngestionError, match=r"A\.csv: A: non-finite"):
            load_observations(d / "manifest.json")

    def test_labels_round_trip(self, tmp_path):
        ids = [f"p{i}" for i in range(6)]
        labels = np.array([0, 1, 1, 0, 0, 1])
        save_labels(tmp_path / "labels.csv", ids, labels)
        np.testing.assert_array_equal(load_labels(tmp_path / "labels.csv", ids), labels)

    def test_duplicate_label_refused(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("patient_id,label\np0,0\np1,1\np0,1\n")
        with pytest.raises(IngestionError, match=r"labels\.csv:4: duplicate label for patient "
                                                 r"'p0' \(first on line 2\)"):
            load_labels(path, ["p0", "p1"])

    def test_duplicate_annotation_refused(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("anchor_item,target_item,score\nA_0,B_0,2\nA_0,B_1,1\nA_0,B_0,0\n")
        with pytest.raises(IngestionError, match=r"ann\.csv:4: duplicate annotation of "
                                                 r"'A_0', 'B_0' \(first on line 2\)"):
            read_annotations(path)


# free-text ids as EHR exports hold them: commas, double quotes, both, and
# a lone quote or comma
PATIENTS = ["Doe, Jane", 'P "J" 7', "p3", '"', ","]
ITEMS = ["Sodium Chloride 0.9%, Flush", '4" gauze', 'a,"b",c', "plain"]


class TestWriteCorrespondence:
    ROW = CorrespondenceRow("Dx", "d,1", "Rx", ["r0", "r1", "r2"],
                            np.array([0.25, 0.5, 0.25]), 4)

    def test_top_k_of_the_row(self, tmp_path):
        path = tmp_path / "corr.csv"
        write_correspondence(path, self.ROW, 2)
        assert path.read_text().splitlines() == [
            "anchor_modality,anchor_item,target_modality,target_item,score,rank",
            'Dx,"d,1",Rx,r1,0.5,1', 'Dx,"d,1",Rx,r0,0.25,2']

    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_bad_k_writes_nothing(self, tmp_path, k):
        path = tmp_path / "out" / "corr.csv"
        with pytest.raises(ConfigurationError, match="k"):
            write_correspondence(path, self.ROW, k)
        assert not (tmp_path / "out").exists()


class TestQuotedIds:
    def test_observations_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        obs = {"Rx": ObservationMatrix("Rx", PATIENTS, ITEMS,
                                       ObservationKind.parse("poisson-integer"),
                                       rng.poisson(1.0, size=(5, 4)).astype(float))}
        loaded = load_observations(save_observations(obs, tmp_path / "data"))
        assert loaded["Rx"].shared_ids == PATIENTS
        assert loaded["Rx"].item_ids == ITEMS
        np.testing.assert_array_equal(loaded["Rx"].values, obs["Rx"].values)

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([1, 0, 1, 0, 0])
        save_labels(tmp_path / "labels.csv", PATIENTS, labels)
        np.testing.assert_array_equal(load_labels(tmp_path / "labels.csv", PATIENTS), labels)

    def test_factor_csv_round_trip(self, tmp_path):
        U = np.random.default_rng(4).uniform(size=(4, 3))
        write_factor_csv(tmp_path / "B.csv", ITEMS, U)
        ids, got = read_factor_csv(tmp_path / "B.csv")
        assert ids == ITEMS
        np.testing.assert_array_equal(got, U)

    def test_unquoted_ids_written_as_before(self, tmp_path):
        obs = {"Rx": make_obs("Rx", [[0.0, 2.0]], "poisson", "integer")}
        save_observations(obs, tmp_path)
        assert (tmp_path / "Rx.csv").read_text() == "patient_id,item_id,value\np0,Rx_1,2\n"
        write_factor_csv(tmp_path / "f.csv", ["p0"], [[0.1, 2.0]])
        assert (tmp_path / "f.csv").read_text() == "entity_id,f1,f2\np0,0.10000000000000001,2\n"


class TestNames:
    def test_item_ids_keep_their_whitespace(self, tmp_path):
        items = [" lead", "trail ", "in side", "\ttab"]
        obs = {"Rx": ObservationMatrix("Rx", ["p0", " p1"], items,
                                       ObservationKind.parse("poisson-integer"),
                                       [[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 0.0, 1.0]])}
        loaded = load_observations(save_observations(obs, tmp_path))
        assert loaded["Rx"].item_ids == items and loaded["Rx"].shared_ids == ["p0", " p1"]
        np.testing.assert_array_equal(loaded["Rx"].values, obs["Rx"].values)

    @pytest.mark.parametrize("item", ["a\nb", "a\r", "\r\nb", ""])
    def test_item_id_a_vocabulary_line_cannot_hold_rejected(self, tmp_path, item):
        obs = {"Dx": make_obs("Dx", [[1.0]], "poisson", "integer"),
               "Rx": ObservationMatrix("Rx", ["p0"], ["x", item],
                                       ObservationKind.parse("poisson-integer"), [[1.0, 2.0]])}
        with pytest.raises(ConfigurationError, match="'Rx'"):
            save_observations(obs, tmp_path / "out")
        assert not (tmp_path / "out").exists()  # nothing written, Dx's files included

    @pytest.mark.parametrize("name", ["../esc", "shared", "", ".."])
    def test_save_rejects_modality_name_that_escapes_or_clashes(self, tmp_path, name):
        obs = {name: make_obs("A", [[1.0]], "poisson", "integer")}
        with pytest.raises(ConfigurationError, match="modality name"):
            save_observations(obs, tmp_path / "out")
        assert not (tmp_path / "esc.csv").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["shared", "../esc", "a\\b", ".", "twice"])
    def test_manifest_with_bad_or_repeated_name_rejected(self, tmp_path, case):
        manifest = save_observations(two_modality_obs(), tmp_path)
        doc = read_json(manifest)
        if case == "twice":
            doc["modalities"].append(dict(doc["modalities"][0]))
        else:
            doc["modalities"][0]["name"] = case
        write_json(manifest, doc)
        with pytest.raises(IngestionError, match=re.escape(manifest)):
            load_observations(manifest)


class TestStratifiedSplit:
    def test_first_holds_a_share_of_each_class(self):
        labels = np.array([0] * 7 + [1] * 3 + [0] * 5)
        for share, n_first in ((0.2, (2, 1)), (0.8, (10, 2)), (0.1, (1, 1))):
            first, rest = stratified_split(labels, share, np.random.default_rng(4))
            assert np.all(np.diff(first) > 0) and np.all(np.diff(rest) > 0)
            assert sorted(np.concatenate([first, rest])) == list(range(15))
            assert (np.sum(labels[first] == 0), np.sum(labels[first] == 1)) == n_first

    def test_split_keeps_one_patient_of_a_small_class_in_train(self):
        obs = two_modality_obs(n=10)
        labels = np.array([0] * 9 + [1])
        (_, y_train), (_, y_test) = split_train_test(obs, labels, ratio=0.4, seed=0,
                                                     stratify=True)
        assert y_train.sum() == 1 and y_test.sum() == 0 and len(y_train) == 5


KIND_VALUES = {
    "poisson-integer": st.integers(0, 4).map(float),
    "poisson-binary": st.sampled_from([0.0, 1.0]),
    "gaussian-real": st.sampled_from([0.0, 0.0, 0.5, 1e-300, 3.25, 1e300]),
    "gaussian-binary": st.sampled_from([0.0, 1.0]),
}
IDS = st.text("abcxyz019_", min_size=1, max_size=4)


@st.composite
def cohorts(draw):
    """Random small cohorts: patient ids in drawn (not sorted) order, 1-3 modalities."""
    patients = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    observations = {}
    for m in range(draw(st.integers(1, 3))):
        name = f"M{m}"
        kind = draw(st.sampled_from(sorted(KIND_VALUES)))
        items = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
        cells = draw(st.lists(KIND_VALUES[kind], min_size=len(patients) * len(items),
                              max_size=len(patients) * len(items)))
        values = np.array(cells).reshape(len(patients), len(items))
        observations[name] = ObservationMatrix(name, patients, items,
                                               ObservationKind.parse(kind), values)
    return observations


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def shuffled_triplets(directory, name, rng):
    """Shuffle a saved triplet file's data lines in place; returns them."""
    path = os.path.join(directory, f"{name}.csv")
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    lines = [lines[i] for i in rng.permutation(len(lines))]
    return path, header, lines


def write_lines(path, header, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *lines]) + "\n")


class TestIngestionFuzz:
    @FUZZ
    @given(cohorts(), st.integers(0, 2**32 - 1))
    def test_save_load_round_trip(self, observations, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = save_observations(observations, tmp)
            for name in observations:
                write_lines(*shuffled_triplets(tmp, name, rng))
            loaded = load_observations(manifest)
        assert list(loaded) == list(observations)
        for name, obs in observations.items():
            assert loaded[name].shared_ids == obs.shared_ids
            assert loaded[name].item_ids == obs.item_ids
            assert loaded[name].kind == obs.kind
            np.testing.assert_array_equal(loaded[name].values, obs.values)

    @FUZZ
    @given(cohorts(), st.sampled_from(["patient", "item", "duplicate"]), st.data())
    def test_injected_triplet_names_its_line(self, observations, fault, data):
        name = data.draw(st.sampled_from(sorted(observations)))
        obs = observations[name]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        with tempfile.TemporaryDirectory() as tmp:
            manifest = save_observations(observations, tmp)
            path, header, lines = shuffled_triplets(tmp, name, rng)
            at = data.draw(st.integers(0, len(lines)))
            if fault == "duplicate":
                if not lines:
                    return
                original = data.draw(st.integers(0, len(lines) - 1))
                bad = lines[original]
                line = max(at, original + (original >= at)) + 2  # the second occurrence
            else:
                pid, item = obs.shared_ids[0], obs.item_ids[0]
                bad = f"{pid}!,{item},1" if fault == "patient" else f"{pid},{item}!,1"
                line = at + 2
            write_lines(path, header, lines[:at] + [bad] + lines[at:])
            message = {"patient": "unknown patient id", "item": "item .* not in vocabulary",
                       "duplicate": "duplicate triplet"}[fault]
            with pytest.raises(IngestionError,
                               match=re.escape(f"{name}.csv:{line}: ") + message):
                load_observations(manifest)


class TestObservationMatrix:
    @pytest.mark.parametrize("kind", [("gaussian", "real"), ("poisson", "integer")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, kind, bad):
        values = np.ones((3, 2))
        values[1, 0] = bad
        with pytest.raises(IngestionError, match="Lab: non-finite"):
            make_obs("Lab", values, *kind)

    def test_finite_values_accepted(self):
        values = np.array([[0.0, 1e300], [2.5, 0.0]])
        assert make_obs("Lab", values, "gaussian", "real").values[0, 1] == 1e300


class TestBinarize:
    def test_indicator(self):
        obs = make_obs("A", np.array([[0.0, 1.0, 5.0]]), "poisson", "integer")
        np.testing.assert_array_equal(binarize(obs).values, [[0.0, 1.0, 1.0]])
        assert binarize(obs).kind.datatype == "binary"

    def test_idempotent(self):
        obs = make_obs("A", np.array([[0.0, 1.0]]), "poisson", "binary")
        np.testing.assert_array_equal(binarize(obs).values, obs.values)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.poisson(0.8, size=(6, 5)).astype(float)
        obs = make_obs("A", values, "poisson", "integer")
        np.testing.assert_array_equal(binarize(obs).values, (values > 0).astype(float))


class TestSplit:
    def test_basic_partition(self):
        obs = two_modality_obs()
        train, test = split_train_test(obs, ratio=0.8, seed=0)
        train_ids = set(train["Dx"].shared_ids)
        test_ids = set(test["Dx"].shared_ids)
        assert len(train_ids) == 8 and len(test_ids) == 2
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(obs["Dx"].shared_ids)

    def test_deterministic(self):
        obs = two_modality_obs()
        a = split_train_test(obs, ratio=0.7, seed=5)
        b = split_train_test(obs, ratio=0.7, seed=5)
        assert a[0]["Dx"].shared_ids == b[0]["Dx"].shared_ids

    def test_consistent_across_modalities(self):
        obs = two_modality_obs()
        train, test = split_train_test(obs, ratio=0.8, seed=3)
        assert train["Dx"].shared_ids == train["Rx"].shared_ids
        assert test["Dx"].shared_ids == test["Rx"].shared_ids

    def test_stratified_rates(self):
        obs = two_modality_obs(n=100)
        rng = np.random.default_rng(9)
        labels = np.zeros(100, dtype=int)
        labels[rng.choice(100, size=10, replace=False)] = 1
        (train, y_train), (test, y_test) = split_train_test(
            obs, labels, ratio=0.8, seed=1, stratify=True)
        assert abs(int(y_train.sum()) - 8) <= 1
        assert abs(int(y_test.sum()) - 2) <= 1

    def test_too_few_patients(self):
        obs = {"A": make_obs("A", np.zeros((1, 2)), "poisson", "integer")}
        with pytest.raises(ValueError):
            split_train_test(obs)

    def test_split_leaving_no_test_patient_is_refused(self):
        obs = two_modality_obs(n=2)
        with pytest.raises(ValueError, match="leaves no test patient"):
            split_train_test(obs, ratio=0.8)
        with pytest.raises(ValueError, match="leaves no test patient"):
            split_train_test(obs, np.array([0, 1]), stratify=True)

    @pytest.mark.parametrize("stratify", [True, False])
    @pytest.mark.parametrize("labels", [[0, 1] * 4, [0, 1] * 6, [0] * 4 + [1] * 4 + [2] * 2,
                                        [0, 1] * 4 + [0.5, 1]])
    def test_labels_must_be_one_0_or_1_per_patient(self, labels, stratify):
        with pytest.raises(ValueError, match="labels must be one 0 or 1 per patient"):
            split_train_test(two_modality_obs(), np.array(labels), stratify=stratify)

    def test_two_patients_keep_one_on_each_side(self):
        train, test = split_train_test(two_modality_obs(n=2), ratio=0.2)
        assert len(train["Dx"].shared_ids) == len(test["Dx"].shared_ids) == 1

    def test_plain_split_is_one_class_stratified_split(self):
        obs = two_modality_obs(n=23)
        ids = np.array(obs["Dx"].shared_ids)
        for seed in range(5):
            train, test = split_train_test(obs, ratio=0.7, seed=seed)
            first, rest = stratified_split(np.zeros(23), 0.7, np.random.default_rng(seed))
            assert train["Dx"].shared_ids == list(ids[first])
            assert test["Dx"].shared_ids == list(ids[rest])


def simple_spec(distribution="poisson", sigma2=None, datatype=None):
    return ModelSpec(rank=2, tensors=[
        InteractionTensorSpec("ab", ["A", "B"], distribution, sigma2)], init_seed=0)


class TestSynthGenerate:
    def test_poisson_counts(self):
        obs, truth = synth_generate(simple_spec(), {"A": 4, "B": 5},
                                    {"A": "integer", "B": "integer"}, 20, seed=1)
        assert obs["A"].values.shape == (20, 4)
        assert np.all(obs["A"].values == np.round(obs["A"].values))
        assert ("ab", "A") in truth.marginal_means

    def test_gaussian_degenerate_variance(self):
        spec = simple_spec("gaussian", sigma2=1e-300)
        obs, truth = synth_generate(spec, {"A": 3, "B": 4},
                                    {"A": "real", "B": "real"}, 10, seed=2)
        np.testing.assert_allclose(obs["A"].values, truth.marginal_means[("ab", "A")],
                                   atol=1e-6)

    def test_zero_mean_rows_zero(self):
        obs, truth = synth_generate(simple_spec(), {"A": 3, "B": 3},
                                    {"A": "integer", "B": "integer"}, 30,
                                    sparsity=0.3, seed=3)
        vhat = truth.marginal_means[("ab", "A")]
        zero_rows = np.flatnonzero(vhat.sum(axis=1) == 0)
        for i in zero_rows:
            assert np.all(obs["A"].values[i] == 0)

    def test_monte_carlo_mean(self):
        # empirical mean of Poisson redraws of one cell approaches its planted mean
        spec = simple_spec()
        _, truth = synth_generate(spec, {"A": 2, "B": 2},
                                  {"A": "integer", "B": "integer"}, 5, seed=0)
        vhat = truth.marginal_means[("ab", "A")][0, 0]
        rng = np.random.default_rng(77)
        samples = rng.poisson(vhat, size=1000)
        se = math.sqrt(max(vhat, 1e-12) / 1000)
        assert abs(samples.mean() - vhat) <= 3 * se + 1e-9

    def test_binary_kind(self):
        obs, _ = synth_generate(simple_spec(), {"A": 3, "B": 3},
                                {"A": "binary", "B": "integer"}, 15, seed=4)
        assert set(np.unique(obs["A"].values)) <= {0.0, 1.0}

    @pytest.mark.parametrize("tensors,datatypes,words", [
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson")],
         {"A": "real", "B": "integer"}, ("'t0'", "'A'", "'real'", "'poisson'")),
        # a later tensor whose distribution cannot hold a modality the first one drew
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson"),
          InteractionTensorSpec("t1", ["A", "C"], "gaussian", 1.0)],
         {"A": "integer", "B": "integer", "C": "real"},
         ("'t1'", "'A'", "'integer'", "'gaussian'"))])
    def test_every_kind_is_checked_before_drawing(self, monkeypatch, tensors, datatypes, words):
        def no_draw(*args):
            raise AssertionError("drew a planted factor")

        monkeypatch.setattr("margfact.data_io._planted_factor", no_draw)
        sizes = dict.fromkeys(datatypes, 3)
        with pytest.raises(ConfigurationError) as info:
            synth_generate(ModelSpec(rank=2, tensors=tensors), sizes, datatypes, 10)
        assert all(word in str(info.value) for word in words), info.value

    @pytest.mark.parametrize("n_patients,sizes,sparsity,scale", [
        (0, {"A": 3, "B": 3}, 0.5, 1.0), (-5, {"A": 3, "B": 3}, 0.5, 1.0),
        (10, {"A": 0, "B": 3}, 0.5, 1.0), (10, {"A": 3, "B": 3}, 2.0, 1.0),
        (10, {"A": 3, "B": 3}, 0.0, 1.0), (10, {"A": 3, "B": 3}, 0.5, -1.0),
        (10, {"A": 3, "B": 3}, 0.5, math.inf), (10, {"A": 3, "B": 3}, 0.5, math.nan)])
    def test_out_of_range_is_configuration_error(self, n_patients, sizes, sparsity, scale):
        with pytest.raises(ConfigurationError):
            synth_generate(simple_spec(), sizes, {"A": "integer", "B": "integer"}, n_patients,
                           sparsity=sparsity, scale=scale)
