import csv
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import margfact.data_io as data_io
from margfact import (ConfigurationError, GaussianParams, IngestionError,
                      InteractionTensorSpec, ModelSpec, ObservationKind, ObservationMatrix,
                      binarize, load_observations, save_observations, split_train_test,
                      synth_generate)
from margfact.analysis import CorrespondenceRow
from margfact.data_io import (_read_triplets, _split_triplets, _take_patients, load_labels,
                              read_annotations, read_factor_csv, read_json, stratified_split,
                              write_correspondence, write_factor_csv, write_json)
from margfact.likelihoods import gaussian_binary_prob

from helpers import make_obs, planted_marginal, write_labels


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
        with pytest.raises(IngestionError, match=re.escape(
                f"A.csv:3: non-finite value {value!r} in a {kind} matrix")):
            load_observations(d / "manifest.json")

    @pytest.mark.parametrize("kind,line,message", [
        ("poisson-integer", "p0,x,-1", "A.csv:2: negative value '-1' in a poisson-integer matrix"),
        ("poisson-integer", "p0,x,1.5",
         "A.csv:2: non-integer value '1.5' in a poisson-integer matrix"),
        ("poisson-binary", "p0,x,2", "A.csv:2: non-binary value '2' in a poisson-binary matrix"),
        ("poisson-integer", '"p0","x"," -1"',
         "A.csv:2: negative value ' -1' in a poisson-integer matrix"),
        ("poisson-integer", "p0,x", "A.csv:2: expected 3 fields, got 2"),
        ("gaussian-real", "p0,x,abc", "A.csv:2: bad value 'abc'")])
    def test_bad_triplet_refused(self, tmp_path, kind, line, message):
        (tmp_path / "A.csv").write_text(f"patient_id,item_id,value\n{line}\n")
        (tmp_path / "A.vocab.txt").write_text("x\n")
        (tmp_path / "manifest.json").write_text(
            '{"modalities": [{"name": "A", "path": "A.csv", "kind": "%s",'
            ' "vocab_path": "A.vocab.txt"}]}' % kind)
        with pytest.raises(IngestionError, match=re.escape(message)):
            load_observations(tmp_path / "manifest.json")

    def test_labels_round_trip(self, tmp_path):
        ids = [f"p{i}" for i in range(6)]
        labels = np.array([0, 1, 1, 0, 0, 1])
        write_labels(tmp_path / "labels.csv", ids, labels)
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

    @pytest.mark.parametrize("read,text,message", [
        (lambda path: load_labels(path, ["p0"]), "patient,label\np0,0\n",
         "in.csv:1: expected header patient_id,label"),
        (lambda path: load_labels(path, ["p0"]), "patient_id,label\np0,2\n",
         "in.csv:2: expected patient_id,label with label in {0,1}"),
        (read_annotations, "anchor,target,score\n",
         "in.csv:1: expected header anchor_item,target_item,score")])
    def test_malformed_labels_or_annotations_refused(self, tmp_path, read, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(IngestionError, match=re.escape(message)):
            read(path)


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
        write_labels(tmp_path / "labels.csv", PATIENTS, labels)
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

    def test_factor_csv_needs_an_id_a_row(self, tmp_path):
        with pytest.raises(ConfigurationError,
                           match="entity id count does not match factor rows"):
            write_factor_csv(tmp_path / "f.csv", ["p0"], np.ones((2, 3)))
        assert not (tmp_path / "f.csv").exists()


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

    @pytest.mark.parametrize("patients,items,named", [
        (["p0", "p1", "p0", "p1"], ["a", "b"], "patient id 'p0'"),
        (["p0", "p1", "p2"], ["a", "b", "b", "a"], "item id 'b'")])
    def test_save_rejects_repeated_ids_that_load_refuses(self, tmp_path, patients, items,
                                                         named):
        obs = {"Rx": ObservationMatrix("Rx", patients, items,
                                       ObservationKind.parse("poisson-integer"),
                                       np.ones((len(patients), len(items))))}
        with pytest.raises(ConfigurationError, match=f"modality 'Rx': {named} is repeated"):
            save_observations(obs, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ids", [["p0", "q1"], ["p1", "p0"], ["p0"]])
    def test_save_rejects_patients_that_differ_from_the_first_modality(self, tmp_path, ids):
        # the manifest lists A's patients, against which load reads B's triplets
        obs = {"A": make_obs("A", [[1.0], [2.0]], "poisson", "integer", ["p0", "p1"]),
               "B": make_obs("B", np.ones((len(ids), 2)), "poisson", "integer", ids)}
        with pytest.raises(ConfigurationError, match="modality 'B': patient ids differ"):
            save_observations(obs, tmp_path / "out")
        assert not (tmp_path / "out").exists()

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

    def test_shape_must_match_the_ids(self):
        with pytest.raises(IngestionError,
                           match=re.escape("Lab: value shape (2, 2) does not match ids (1, 2)")):
            ObservationMatrix("Lab", ["p0"], ["x", "y"], ObservationKind("gaussian", "real"),
                              np.zeros((2, 2)))

    @pytest.mark.parametrize("kind,given", [(("poisson", "integer"), np.uint8),
                                            (("gaussian", "real"), float),
                                            (("poisson", "binary"), bool)])
    def test_check_allocates_for_the_nonzero_cells_only(self, kind, given):
        """Making a matrix from a 2,000 x 1,000 array at 2% nonzero peaks at no
        more than a byte a cell: only its nonzero cells are checked."""
        rng = np.random.default_rng(0)
        present = rng.uniform(size=(2000, 1000)) < 0.02
        values = (present * rng.integers(1, 4, size=present.shape)).astype(given)
        tracemalloc.start()
        try:
            obs = ObservationMatrix("A", [f"p{i}" for i in range(2000)],
                                    [f"A_{j}" for j in range(1000)], ObservationKind(*kind), values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.values is values
        assert peak <= values.size

    @staticmethod
    def stored(datatype, values):
        return ObservationMatrix("Lab", ["p0", "p1"], ["x", "y"],
                                 ObservationKind("poisson", datatype), values)

    @pytest.mark.parametrize("datatype,values,what", [
        ("binary", np.array([[0, 1], [2, 1]], dtype=np.uint8), "non-binary value"),
        ("binary", np.array([[1, 0], [0, 255]], dtype=np.uint16), "non-binary value"),
        ("integer", np.array([[3, 0], [2 ** 53, 1]], dtype=np.uint64), "count of 2**53 or more")])
    def test_unsigned_matrix_refused_on_its_largest_value(self, datatype, values, what):
        with pytest.raises(IngestionError,
                           match=re.escape(f"Lab: {what} in a poisson-{datatype} matrix")):
            self.stored(datatype, values)

    @pytest.mark.parametrize("datatype,values,dtype", [
        ("binary", np.array([[True, False], [False, True]]), bool),
        ("binary", np.zeros((2, 2), dtype=bool), bool),
        ("binary", np.array([[1, 0], [0, 1]], dtype=np.uint32), bool),
        ("integer", np.array([[0, 2 ** 53 - 1], [7, 0]], dtype=np.uint64), np.uint64)])
    def test_unsigned_matrix_within_the_rules_accepted(self, datatype, values, dtype):
        obs = self.stored(datatype, values)
        assert obs.values.dtype == dtype
        np.testing.assert_array_equal(obs.values, values)


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
        with pytest.raises(ValueError, match="at least one modality"):
            split_train_test({})

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
    def test_ratio_outside_unit_interval_refused(self, ratio):
        with pytest.raises(ValueError, match=r"ratio must lie in \(0, 1\)"):
            split_train_test(two_modality_obs(), ratio=ratio)

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
        obs, _ = synth_generate(simple_spec(), {"A": 4, "B": 5},
                                {"A": "integer", "B": "integer"}, 20, seed=1)
        assert obs["A"].values.shape == (20, 4)
        assert np.all(obs["A"].values == np.round(obs["A"].values))

    def test_gaussian_degenerate_variance(self):
        spec = simple_spec("gaussian", sigma2=1e-300)
        obs, truth = synth_generate(spec, {"A": 3, "B": 4},
                                    {"A": "real", "B": "real"}, 10, seed=2)
        np.testing.assert_allclose(obs["A"].values, planted_marginal(truth, ["A", "B"], 0),
                                   atol=1e-6)

    def test_zero_mean_rows_zero(self):
        obs, truth = synth_generate(simple_spec(), {"A": 3, "B": 3},
                                    {"A": "integer", "B": "integer"}, 30,
                                    sparsity=0.3, seed=3)
        vhat = planted_marginal(truth, ["A", "B"], 0)
        zero_rows = np.flatnonzero(vhat.sum(axis=1) == 0)
        for i in zero_rows:
            assert np.all(obs["A"].values[i] == 0)

    def test_monte_carlo_mean(self):
        # empirical mean of Poisson redraws of one cell approaches its planted mean
        spec = simple_spec()
        _, truth = synth_generate(spec, {"A": 2, "B": 2},
                                  {"A": "integer", "B": "integer"}, 5, seed=0)
        vhat = planted_marginal(truth, ["A", "B"], 0)[0, 0]
        rng = np.random.default_rng(77)
        samples = rng.poisson(vhat, size=1000)
        se = math.sqrt(max(vhat, 1e-12) / 1000)
        assert abs(samples.mean() - vhat) <= 3 * se + 1e-9

    def test_gaussian_binary_share_of_ones(self):
        # the share of ones drawn approaches the mean of the cells' probabilities
        obs, truth = synth_generate(simple_spec("gaussian", sigma2=0.1), {"A": 3, "B": 4},
                                    {"A": "binary", "B": "real"}, 2000, seed=5)
        p = gaussian_binary_prob(planted_marginal(truth, ["A", "B"], 0), GaussianParams(0.1, 4))
        assert 0.6 < p.mean() < 0.95  # far from the draws of a fair or a certain coin
        assert set(np.unique(obs["A"].values)) <= {0.0, 1.0}
        se = math.sqrt(np.sum(p * (1.0 - p))) / p.size
        assert abs(obs["A"].values.mean() - p.mean()) <= 4 * se

    def test_binary_kind(self):
        obs, _ = synth_generate(simple_spec(), {"A": 3, "B": 3},
                                {"A": "binary", "B": "integer"}, 15, seed=4)
        assert set(np.unique(obs["A"].values)) <= {0.0, 1.0}

    # sizes None: every modality given a datatype has size 3
    @pytest.mark.parametrize("tensors,datatypes,words,sizes", [
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson")],
         {"A": "real", "B": "integer"}, ("'t0'", "'A'", "'real'", "'poisson'"), None),
        # a later tensor whose distribution cannot hold a modality the first one drew
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson"),
          InteractionTensorSpec("t1", ["A", "C"], "gaussian", 1.0)],
         {"A": "integer", "B": "integer", "C": "real"},
         ("'t1'", "'A'", "'integer'", "'gaussian'"), None),
        # a tensor modality with no size, or no datatype
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson")],
         {"A": "integer", "B": "integer"}, ("'B'", "no size"), {"A": 3}),
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson")],
         {"A": "integer"}, ("'B'", "no datatype"), {"A": 3, "B": 3}),
        # a size for a modality no tensor lists
        ([InteractionTensorSpec("t0", ["A", "B"], "poisson")],
         {"A": "integer", "B": "integer"}, ("'C'", "not referenced"), {"A": 3, "B": 3, "C": 3})])
    def test_every_kind_is_checked_before_drawing(self, monkeypatch, tensors, datatypes, words,
                                                  sizes):
        def no_draw(*args):
            raise AssertionError("drew a planted factor")

        monkeypatch.setattr("margfact.data_io._planted_factor", no_draw)
        sizes = dict.fromkeys(datatypes, 3) if sizes is None else sizes
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


FOUR_KINDS = {"A": ("poisson", "integer"), "B": ("poisson", "binary"),
              "R": ("gaussian", "real"), "E": ("gaussian", "binary")}


def stored_dtype(datatype):
    """The dtype of FOUR_KINDS' matrices, whose counts are all below 256."""
    return np.dtype({"binary": bool, "integer": np.uint8, "real": float}[datatype])


def assert_stored_dtypes(observations):
    for name, obs in observations.items():
        assert obs.values.dtype == stored_dtype(FOUR_KINDS[name][1]), name


def four_kind_obs(n=8, seed=0):
    rng = np.random.default_rng(seed)
    values = {"A": rng.poisson(1.0, (n, 3)), "B": rng.uniform(size=(n, 4)) < 0.3,
              "R": rng.uniform(0, 2, (n, 2)), "E": rng.uniform(size=(n, 3)) < 0.5}
    return {name: make_obs(name, values[name], *FOUR_KINDS[name]) for name in FOUR_KINDS}


class TestStoredDtype:
    """A binary kind is stored as bool, an integer kind as the narrowest
    unsigned integer that holds its largest count and a real kind as
    float64, from every constructor, with the same values."""

    @pytest.mark.parametrize("name", sorted(FOUR_KINDS))
    @pytest.mark.parametrize("given", [float, bool])
    def test_observation_matrix(self, name, given):
        values = np.array([[0, 1], [1, 0]], dtype=given)
        obs = ObservationMatrix(name, ["p0", "p1"], ["x", "y"],
                                ObservationKind(*FOUR_KINDS[name]), values)
        assert obs.values.dtype == stored_dtype(FOUR_KINDS[name][1])
        np.testing.assert_array_equal(obs.values, values)
        if given is bool and FOUR_KINDS[name][1] == "binary":
            assert obs.values is values  # valid by construction: kept, not copied

    @pytest.mark.parametrize("distribution", ["poisson", "gaussian"])
    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    def test_float_given_for_binary_kind_is_still_checked(self, distribution, bad):
        with pytest.raises(IngestionError, match=f"B: .* in a {distribution}-binary matrix"):
            make_obs("B", np.array([[0.0, bad]]), distribution, "binary")

    def test_load_observations(self, tmp_path):
        observations = four_kind_obs()
        loaded = load_observations(save_observations(observations, tmp_path))
        assert_stored_dtypes(loaded)
        for name, obs in observations.items():
            np.testing.assert_array_equal(loaded[name].values, obs.values)

    def test_synth_generate(self):
        spec = ModelSpec(rank=2, tensors=[InteractionTensorSpec("p", ["B", "A"], "poisson"),
                                          InteractionTensorSpec("g", ["E", "R"], "gaussian",
                                                                0.5)])
        observations, _ = synth_generate(spec, {"A": 3, "B": 4, "R": 2, "E": 3},
                                         {name: kind[1] for name, kind in FOUR_KINDS.items()},
                                         n_patients=20, seed=1)
        assert_stored_dtypes(observations)

    def test_take_patients_and_split(self):
        observations = four_kind_obs(n=10)
        assert_stored_dtypes(_take_patients(observations, [3, 1, 4]))
        for side in split_train_test(observations, seed=2):
            assert_stored_dtypes(side)

    @pytest.mark.parametrize("name", sorted(FOUR_KINDS))
    def test_binarize(self, name):
        obs = four_kind_obs()[name]
        assert binarize(obs).values.dtype == np.dtype(bool)
        np.testing.assert_array_equal(binarize(obs).values, obs.values > 0)

    def test_binary_load_allocates_under_a_float64_matrix(self, tmp_path):
        """Loading a 2,000 x 1,000 binary modality at 2% density peaks below 6
        bytes a cell; a float64 matrix alone would take 8."""
        rng = np.random.default_rng(0)
        values = rng.uniform(size=(2000, 1000)) < 0.02
        obs = ObservationMatrix("B", [f"p{i}" for i in range(2000)],
                                [f"B_{j}" for j in range(1000)],
                                ObservationKind("poisson", "binary"), values)
        manifest = save_observations({"B": obs}, tmp_path)
        tracemalloc.start()
        try:
            loaded = load_observations(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded["B"].values, values)
        assert peak < 6 * values.size


def write_counts(tmp_path, lines):
    """A manifest of one poisson-integer modality A over items x and y, whose
    triplet file holds lines after its header."""
    (tmp_path / "A.csv").write_text("patient_id,item_id,value\n" + "".join(
        f"{line}\n" for line in lines))
    (tmp_path / "A.vocab.txt").write_text("x\ny\n")
    (tmp_path / "manifest.json").write_text(
        '{"modalities": [{"name": "A", "path": "A.csv", "kind": "poisson-integer",'
        ' "vocab_path": "A.vocab.txt"}]}')
    return tmp_path / "manifest.json"


class TestCountDtype:
    """A count is held in the narrowest unsigned integer that holds the
    matrix's largest count, and a count of 2**53 or more is refused: float64
    holds every smaller count exactly, and a triplet value parsed as 2**53
    may stand for 2**53 + 1."""

    @pytest.mark.parametrize("largest,dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16), (65_536, np.uint32),
        (2 ** 32, np.uint64), (2 ** 53 - 1, np.uint64)])
    def test_largest_count_picks_the_dtype(self, tmp_path, largest, dtype):
        counts = np.array([[0, 1], [largest, 3]], dtype=np.uint64)
        obs = ObservationMatrix("A", ["p0", "p1"], ["x", "y"],
                                ObservationKind("poisson", "integer"), counts)
        assert obs.values.dtype == dtype
        np.testing.assert_array_equal(obs.values, counts)
        loaded = load_observations(save_observations({"A": obs}, tmp_path))["A"]
        assert loaded.values.dtype == dtype
        assert loaded.values.tolist() == counts.tolist()  # exact, as Python ints

    @pytest.mark.parametrize("text,value", [("9007199254740994", "9007199254740994.0"),
                                            ("1e300", "1e+300"),
                                            ("9007199254740992", "9007199254740992.0"),
                                            ("9007199254740993", "9007199254740992.0")])
    def test_triplet_count_beyond_2_to_the_53_refused(self, tmp_path, text, value):
        manifest = write_counts(tmp_path, ["p0,y,2", f"p1,x,{text}"])
        with pytest.raises(IngestionError, match=re.escape(
                f"A.csv:3: count of 2**53 or more {text!r} in a poisson-integer matrix")) as exc:
            load_observations(manifest)
        # the message quotes the file's text, not value, the float it parses to
        assert repr(float(text)) == value and value not in str(exc.value)

    def test_matrix_count_beyond_2_to_the_53_refused(self):
        for counts in (np.array([[0.0, 2.0 ** 60]]), np.array([[0, 2 ** 53]], dtype=np.uint64),
                       np.array([[0, 2 ** 53 + 1]], dtype=np.uint64)):
            with pytest.raises(IngestionError, match=re.escape(
                    "A: count of 2**53 or more in a poisson-integer matrix")):
                ObservationMatrix("A", ["p0"], ["x", "y"], ObservationKind("poisson", "integer"),
                                  counts)

    def test_count_load_allocates_under_a_float64_matrix(self, tmp_path):
        """Loading a 2,000 x 1,000 count modality at 2% density, counts 1-255,
        peaks below 8 bytes a cell, what a float64 matrix alone would take."""
        rng = np.random.default_rng(0)
        present = rng.uniform(size=(2000, 1000)) < 0.02
        values = (present * rng.integers(1, 256, size=present.shape)).astype(np.uint8)
        obs = ObservationMatrix("A", [f"p{i}" for i in range(2000)],
                                [f"A_{j}" for j in range(1000)],
                                ObservationKind("poisson", "integer"), values)
        manifest = save_observations({"A": obs}, tmp_path)
        tracemalloc.start()
        try:
            loaded = load_observations(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded["A"].values.dtype == np.uint8
        np.testing.assert_array_equal(loaded["A"].values, values)
        assert peak < 8 * values.size


def reference_triplets(path):
    """Triplet columns by csv.reader, one row at a time: the reading the one-pass
    split must reproduce, error for error."""
    pids, items, values = [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["patient_id", "item_id", "value"]:
            raise IngestionError(f"{path}:1: expected header patient_id,item_id,value")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise IngestionError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                value = float(row[2])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: bad value {row[2]!r}") from exc
            pids.append(row[0])
            items.append(row[1])
            values.append(value)
    return pids, items, np.array(values, dtype=float)


NUMBERS = st.sampled_from(["1", "0", "2.5", "-1", "nan", " 3", "1e3"])
FIELDS = st.one_of(NUMBERS, NUMBERS, st.text('ab ,"', max_size=4))  # numbers fill any column


@st.composite
def triplet_texts(draw):
    """Triplet files: ids with commas, quotes and spaces, written raw or
    quoted; LF or CRLF endings; blank lines; lines of 2-4 fields; sometimes a
    wrong header or no final line break. Half are plain text (no quote, no
    carriage return), the text the one-pass split reads."""
    plain = draw(st.booleans())
    fields = FIELDS.map(lambda f: f.replace('"', "")) if plain else FIELDS
    header = draw(st.sampled_from(["patient_id,item_id,value"] * 4
                                  + ["patient_id,item_id", '"patient_id",item_id,value']))
    lines = [header.replace('"', "") if plain else header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        count = draw(st.sampled_from([3, 3, 3, 2, 4]))
        row = draw(st.lists(fields, min_size=count, max_size=count))
        quote = not plain and draw(st.booleans())
        lines.append(",".join('"' + f.replace('"', '""') + '"' if quote else f for f in row))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def read_outcome(read, path):
    try:
        pids, items, values = read(path)
    except IngestionError as exc:
        return str(exc)
    return pids, items, values.tobytes()  # bit for bit, NaN included


class TestTripletParse:
    @settings(max_examples=300, deadline=None)
    @given(triplet_texts())
    def test_split_parse_reads_as_csv_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "A.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert read_outcome(_read_triplets, path) == read_outcome(reference_triplets, path)

    @pytest.mark.parametrize("body,lines", [
        ("", 0), ("p0,x,1\n", 1), ("p0,x,1", 1), ("p0,x,1\np1,y,0\n", 2)])
    def test_plain_text_takes_the_split(self, body, lines):
        pids, items, values = _split_triplets(body)
        assert len(pids) == len(items) == values.size == lines

    @pytest.mark.parametrize("body", [
        "p0,x\n3,y,1,2\n",  # 3 x lines fields, but not three to each line
        "p0,x,1\n\n", "p0,x,abc\n", "\n"])
    def test_split_declines_what_csv_reader_must_read(self, body):
        assert _split_triplets(body) is None


def reference_factor(path):
    """A factor file's ids and entries by csv.reader and float(), one row at a
    time: the reading the one-pass split must reproduce, error for error."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    width = len(rows[0]) if rows else 0
    if width < 2:
        raise IngestionError(f"{path}:1: expected header entity_id,f1,...,fR")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise IngestionError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
    try:
        values = [float(f) for row in rows[1:] for f in row[1:]]
    except ValueError as exc:
        raise IngestionError(f"{path}: bad factor entry ({exc})") from exc
    return [row[0] for row in rows[1:]], np.array(values, dtype=float).reshape(-1, width - 1)


@st.composite
def factor_texts(draw):
    """Factor files: a header of 1-4 fields; ids and entries with commas,
    quotes and spaces, written raw or quoted; LF or CRLF endings; blank lines;
    lines one field short or long; sometimes no final line break. Half are
    plain text (no quote, no carriage return), the text the one-pass split
    reads."""
    plain = draw(st.booleans())
    fields = FIELDS.map(lambda f: f.replace('"', "")) if plain else FIELDS
    width = draw(st.sampled_from([3, 3, 2, 4, 1]))
    header = ",".join(["entity_id"] + [f"f{r}" for r in range(1, width)])
    lines = [header if plain or draw(st.booleans()) else '"entity_id"' + header[9:]]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        row = draw(st.lists(fields, min_size=count, max_size=count))
        quote = not plain and draw(st.booleans())
        lines.append(",".join('"' + f.replace('"', '""') + '"' if quote else f for f in row))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def factor_outcome(read, path):
    try:
        ids, U = read(path)
    except IngestionError as exc:
        return str(exc)
    return ids, U.shape, U.tobytes()  # bit for bit, NaN included


class TestFactorParse:
    @settings(max_examples=300, deadline=None)
    @given(factor_texts())
    def test_factor_read_reads_as_csv_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "B.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert factor_outcome(read_factor_csv, path) == factor_outcome(reference_factor, path)

    def test_written_factor_takes_the_split(self, tmp_path, monkeypatch):
        U = np.random.default_rng(5).uniform(size=(6, 3))
        write_factor_csv(tmp_path / "B.csv", [f"B_{i}" for i in range(6)], U)
        monkeypatch.setattr(data_io, "_parse_factor_fields", None)  # a call would fail
        ids, got = read_factor_csv(tmp_path / "B.csv")
        assert ids == [f"B_{i}" for i in range(6)]
        np.testing.assert_array_equal(got, U)

    @pytest.mark.parametrize("body,width,fields", [
        ("", 2, []), ("a,1\n", 2, ["a", "1"]), ("a,1,2\nb,3,4", 3, ["a", "1", "2", "b", "3", "4"]),
        ("a,,\n,1,2\n", 3, ["a", "", "", "", "1", "2"])])
    def test_split_fields_cuts_lines_of_width_fields(self, body, width, fields):
        assert data_io._split_fields(body, width) == fields

    @pytest.mark.parametrize("body,width", [
        ("a,1\nb\n", 2), ("a,1,2\nb\n", 2), ("a,1\n\n", 2), ("\n", 2), ("a,1\nb,2\n", 3),
        ("a,1\nb,2,3", 2), ("a,1,\nb,2\n", 2)])
    def test_split_fields_declines_other_widths(self, body, width):
        assert data_io._split_fields(body, width) is None
