"""Every file margfact reads or writes; observation splitting and synthetic data.

Observations live on disk as triplet CSVs (patient_id,item_id,value) with
implicit zeros, referenced from a JSON manifest. In memory they are dense
patient-by-item arrays with ordered id lists: bool for a binary kind, one
byte a cell, float64 for a real kind, and for an integer kind the narrowest
unsigned integer that holds the matrix's largest count. Fitted factors are
CSVs (entity_id,f1,...,fR), and specs, traces and reports are JSON documents.

CSV writers quote an id by the csv rules, only where it holds a comma, a
double quote or a line break, and every CSV reader parses as csv.reader
does, so any id round-trips through a CSV. A vocabulary file holds one item id
per line, as written, so an item id may not be empty or hold a line break.
A file that cannot be read, or whose content is malformed, raises
IngestionError naming it; a file or directory that cannot be written
raises ConfigurationError.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IngestionError, check_keys, check_setting
from .likelihoods import (BINARY, INTEGER, POISSON, REAL, GaussianParams,
                          ObservationKind, gaussian_binary_prob, tensor_kind)
from .tensor import multiplicity, reconstruct_marginal

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


@contextlib.contextmanager
def _open(path, mode="r"):
    """path as UTF-8 text, for reading or (creating its directory) writing.
    Failing to read or decode it raises IngestionError, failing to write it
    ConfigurationError, either naming it."""
    try:
        if mode == "w":
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, ValueError) as exc:
        error = IngestionError if mode == "r" else ConfigurationError
        raise error(f"cannot {'read' if mode == 'r' else 'write'} {path}: "
                    f"{getattr(exc, 'strerror', None) or exc}") from exc


def _field(value):
    """value as a CSV field: quoted, with inner quotes doubled, where it needs quotes."""
    s = str(value)
    return '"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) else s


def _fields(values):
    """Each of values as a CSV field (_field); one search of their joined text
    finds whether any needs quotes, as the search matches single characters."""
    texts = list(map(str, values))
    return list(map(_field, texts)) if _NEEDS_QUOTES.search("".join(texts)) else texts


def check_modality_name(name, error):
    """Raise error unless name can name a modality: its files are <name>.csv
    and <name>.vocab.txt, beside a model's shared.csv, in one directory."""
    if not isinstance(name, str) or name in ("", "shared", ".", "..") or {"/", "\\"} & set(name):
        raise error(f"bad modality name {name!r}: it must be a non-empty string other than "
                    "'shared', '.' and '..', without '/' or '\\'")


def check_labels(labels, n, error):
    """Raise error unless labels hold one 0 or 1 for each of n patients."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise error(f"labels must be one 0 or 1 per patient: {n} patients, "
                    f"labels of shape {labels.shape}")
    valid = np.isin(labels, (0, 1)) if labels.dtype.kind in "biuf" else np.zeros(n, bool)
    if not valid.all():
        i = int(np.argmin(valid))
        raise error(f"labels must be one 0 or 1 per patient: patient {i} has {labels[i].item()!r}")


def read_json(path):
    """The JSON document at path."""
    with _open(path) as fh:
        return json.load(fh)


def write_json(path, doc, sort_keys=False):
    """Write doc indented by 2, with a final newline."""
    with _open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _value_dtype(kind, values):
    """The dtype an ObservationMatrix of kind stores, given its checked values
    (every nonzero one at least): bool for a binary kind, float64 for a real
    kind and, for an integer kind, the narrowest of uint8 to uint64 that
    holds the largest count (_value_faults refuses a count of 2**53 or more,
    so each one is held exactly, as it is by float64)."""
    if kind.datatype == BINARY:
        return np.dtype(bool)
    if kind.datatype == REAL:
        return np.dtype(float)
    return np.min_scalar_type(int(values.max(initial=0)))


@dataclass
class ObservationMatrix:
    modality: str
    shared_ids: list
    item_ids: list
    kind: ObservationKind
    values: np.ndarray  # dense (I_s, I_n), of dtype _value_dtype(kind, values)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (len(self.shared_ids), len(self.item_ids)):
            raise IngestionError(f"{self.modality}: value shape {values.shape} does not match "
                                 f"ids ({len(self.shared_ids)}, {len(self.item_ids)})")
        if values.dtype.kind in "bu":
            # a rule a bool or unsigned value can break (non-binary, 2**53 or
            # more) holds for the largest value exactly when it holds for every cell
            checked = values.max(initial=0, keepdims=True)
        else:
            flat = values.ravel(order="K")  # a view unless values has gaps
            checked = flat[np.flatnonzero(flat)]  # a zero breaks no rule
            if checked.dtype.kind not in "if":  # integer and float are checked as they are
                checked = checked.astype(float)
        for mask, what in _value_faults(self.kind, checked):
            if mask.any():
                raise IngestionError(f"{self.modality}: {what} in a {self.kind} matrix")
        self.values = values.astype(_value_dtype(self.kind, checked), copy=False)

    @property
    def n_items(self):
        return len(self.item_ids)


def _value_faults(kind, values):
    """(mask, what) for each rule a value of kind must keep, in order, with
    mask marking the values (bool, integer or float) that break it."""
    yield ~np.isfinite(values), "non-finite value"
    yield values < 0, "negative value"
    if kind.datatype == INTEGER:
        yield values != np.round(values), "non-integer value"
        # float64 holds each smaller count exactly; a parsed 2**53 may stand for 2**53 + 1
        yield values >= 2 ** 53, "count of 2**53 or more"
    if kind.datatype == BINARY:
        yield (values != 0) & (values != 1), "non-binary value"


def _note_line(first_line, key, path, lineno, what):
    """Record key's line in first_line; a key already there raises
    IngestionError naming this line and the first."""
    if key in first_line:
        raise IngestionError(f"{path}:{lineno}: duplicate {what} "
                             f"(first on line {first_line[key]})")
    first_line[key] = lineno


def _read_vocab(path):
    first_line = {}  # item -> line number, in file order
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            item = line.rstrip("\r\n")
            if item:
                _note_line(first_line, item, path, lineno, f"vocabulary item {item!r}")
    return list(first_line)


_TRIPLET_HEADER = "patient_id,item_id,value"


def _read_triplets(path):
    """Columns (patient ids, item ids, values) of a triplet CSV; triplet i is on line i + 2.

    In text without a double quote or a carriage return csv.reader cuts the
    fields at every comma and line feed. Such text whose body is three fields
    a line is split so in one pass, with no Python object per row. Other text,
    and text holding a value float() refuses, is read by csv.reader, which
    names the line of its first fault.
    """
    with _open(path) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header == _TRIPLET_HEADER and '"' not in text and "\r" not in text:
        columns = _split_triplets(body)
        if columns is not None:
            return columns
    return _parse_triplets(path, text)


#: every byte but a comma and a line feed, which csv.reader cuts plain text at
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _split_fields(body, width):
    """The fields of the lines after a header, in order, split at commas and
    line feeds, or None unless every line holds `width` (2 or more) fields."""
    if not body:
        return []
    ended = body.endswith("\n")
    separators = body.encode().translate(None, _NOT_SEPARATORS)
    # width fields a line: width - 1 commas, then a line feed unless it is the unended last
    lines = (b"," * (width - 1) + b"\n") * (separators.count(b"\n") + (not ended))
    if separators != (lines if ended else lines[:-1]):
        return None
    fields = body.replace("\n", ",").split(",")
    if ended:
        fields.pop()  # the empty field after the final line feed
    return fields


def _split_triplets(body):
    """The columns of the lines after a triplet header, as _split_fields cuts
    them, or None unless every line holds three fields and every value is a
    float."""
    fields = _split_fields(body, 3)
    if fields is None:
        return None
    try:
        values = np.fromiter(map(float, fields[2::3]), dtype=float, count=len(fields) // 3)
    except ValueError:
        return None
    return fields[0::3], fields[1::3], values


def _parse_triplets(path, text):
    """_read_triplets' columns of the file text by csv.reader, row by row."""
    pids, items, values = [], [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, None) != _TRIPLET_HEADER.split(","):
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


def _indices(ids, index):
    """Position of each id in `index` (a dict), -1 for an id it lacks."""
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), dtype=np.intp, count=len(ids))


def _fill(path, triplets, pidx, n_rows, vocab, kind):
    """(n_rows, len(vocab)) array of dtype _value_dtype(kind, values) holding the
    triplets' values at (pidx row, vocab column); every patient and item must
    be known, every (patient, item) pair unique and every value one kind
    holds. An error names the line of the first offending triplet in file
    order, and quotes the text of an offending value."""
    pids, items, values = triplets
    rows = _indices(pids, pidx)
    cols = _indices(items, {it: j for j, it in enumerate(vocab)})
    known = (rows >= 0) & (cols >= 0)
    key = np.where(known, rows * len(vocab) + cols, -1)  # -1: bad whether repeated or not
    order = np.argsort(key, kind="stable")  # a repeated key's later lines follow its first
    sorted_key = key[order]
    repeated = np.zeros(key.size, dtype=bool)
    repeated[order[1:]] = sorted_key[1:] == sorted_key[:-1]
    faults = list(_value_faults(kind, values))
    bad = ~known | repeated | np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        i = int(np.argmax(bad))
        if rows[i] < 0:
            raise IngestionError(f"{path}:{i + 2}: unknown patient id {pids[i]!r}")
        if cols[i] < 0:
            raise IngestionError(f"{path}:{i + 2}: item {items[i]!r} not in vocabulary")
        if repeated[i]:
            raise IngestionError(f"{path}:{i + 2}: duplicate triplet for {(pids[i], items[i])}")
        what = next(what for mask, what in faults if mask[i])
        with _open(path) as fh:  # re-read, to name the text and not the float it parsed to
            text = next(itertools.islice(csv.reader(fh), i + 1, None))[2]
        raise IngestionError(f"{path}:{i + 2}: {what} {text!r} in a {kind} matrix")
    out = np.zeros((n_rows, len(vocab)), dtype=_value_dtype(kind, values))
    out[rows, cols] = values
    return out


def load_observations(manifest_path):
    """Load all modalities listed in a manifest JSON; returns name -> ObservationMatrix.

    The manifest is an object with a non-empty "modalities" list of
    {name, path, kind, vocab_path} entries (paths relative to it) and an
    optional "patients" list, and no other key; any other shape raises
    IngestionError naming it.
    So do a "patients" list that repeats an id, a cohort without patients and
    a modality without items.
    """
    manifest = read_json(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    try:
        check_keys("top level", manifest, ("modalities", "patients"), ValueError)
        entries, patients = manifest["modalities"], manifest.get("patients", [])
        if not (isinstance(entries, list) and entries and isinstance(patients, list)
                and all(isinstance(p, str) for p in patients)):
            raise IngestionError(f"{manifest_path}: 'modalities' must be a non-empty list "
                                 "and 'patients' a list of ids")
        files = {}
        for i, e in enumerate(entries, start=1):
            check_keys(f"'modalities' entry {i}", e, ("name", "path", "kind", "vocab_path"),
                       ValueError)
            check_modality_name(e["name"], ValueError)
            if e["name"] in files:
                raise ValueError(f"modality {e['name']!r} listed twice")
            files[e["name"]] = (ObservationKind.parse(e["kind"]), os.path.join(base, e["path"]),
                                os.path.join(base, e["vocab_path"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{manifest_path}: malformed manifest "
                             f"({type(exc).__name__}: {exc})") from exc

    raw = {name: (kind, _read_vocab(vocab_path), _read_triplets(path), path)
           for name, (kind, path, vocab_path) in files.items()}

    # without a patients list, the union of patients across modalities,
    # zero-filled where absent
    shared_ids = patients or sorted(set(itertools.chain.from_iterable(
        triplets[0] for _, _, triplets, _ in raw.values())))
    pidx = {p: i for i, p in enumerate(shared_ids)}

    observations = {}
    for name in files:
        kind, vocab, triplets, path = raw.pop(name)
        values = _fill(path, triplets, pidx, len(shared_ids), vocab, kind)
        del triplets  # freed before the matrix is checked and the next one filled
        observations[name] = ObservationMatrix(name, list(shared_ids), vocab, kind, values)

    # a cohort that cannot be aligned or fitted, checked last so that input
    # failing an earlier check keeps its message
    if len(pidx) < len(shared_ids):  # an id repeats: name its first repeat, as _note_line does
        first = {}
        for i, p in enumerate(shared_ids, start=1):
            if first.setdefault(p, i) != i:
                raise IngestionError(f"{manifest_path}: 'patients' entry {i}: duplicate patient "
                                     f"id {p!r} (first at entry {first[p]})")
    if not shared_ids:
        raise IngestionError(f"{manifest_path}: no patients: no 'patients' list "
                             "and no triplet names one")
    for name, obs in observations.items():
        if not obs.item_ids:
            raise IngestionError(f"{files[name][2]}: modality {name!r} has an empty vocabulary")
    return observations


def _first_repeat(ids):
    """The first of ids equal to an earlier one, or None."""
    seen = set()
    for x in ids:
        if x in seen:
            return x
        seen.add(x)
    return None


def save_observations(observations, out_dir):
    """Write manifest + triplet/vocab files; inverse of load_observations.
    Every modality must hold the first one's patient ids, in its order: the
    manifest lists them once, and load_observations reads every modality
    against that list."""
    first = next(iter(observations), None)
    for name, obs in observations.items():  # every check before the first write
        check_modality_name(name, ConfigurationError)
        if list(obs.shared_ids) != list(observations[first].shared_ids):
            raise ConfigurationError(f"modality {name!r}: patient ids differ from those of "
                                     f"the first modality {first!r}, which the manifest lists")
        if any(not it or "\n" in it or "\r" in it for it in map(str, obs.item_ids)):
            raise ConfigurationError(f"modality {name!r}: an item id is empty or holds a line "
                                     "break, which a vocabulary file cannot carry")
        for what, ids in (("patient", obs.shared_ids), ("item", obs.item_ids)):
            repeat = _first_repeat(map(str, ids))
            if repeat is not None:
                raise ConfigurationError(f"modality {name!r}: {what} id {repeat!r} is repeated, "
                                         "which load_observations refuses")
    entries = []
    for name, obs in observations.items():
        triplet_path = f"{name}.csv"
        vocab_path = f"{name}.vocab.txt"
        with _open(os.path.join(out_dir, vocab_path), "w") as fh:
            fh.writelines(f"{it}\n" for it in obs.item_ids)
        pids, items = _fields(obs.shared_ids), _fields(obs.item_ids)
        rows, cols = np.nonzero(obs.values)
        with _open(os.path.join(out_dir, triplet_path), "w") as fh:
            fh.write("patient_id,item_id,value\n")
            fh.writelines("%s,%s,%.17g\n" % (pids[i], items[j], v) for i, j, v in
                          zip(rows.tolist(), cols.tolist(), obs.values[rows, cols].tolist()))
        entries.append({"name": name, "path": triplet_path, "kind": str(obs.kind),
                        "vocab_path": vocab_path})
    manifest_path = os.path.join(out_dir, "manifest.json")
    shared_ids = observations[first].shared_ids if observations else []
    write_json(manifest_path, {"modalities": entries, "patients": list(shared_ids)})
    return manifest_path


def write_factor_csv(path, entity_ids, U):
    """Serialize a factor matrix: header entity_id,f1,...,fR; 17 significant digits."""
    U = np.asarray(U, dtype=float)
    if len(entity_ids) != U.shape[0]:
        raise ConfigurationError("entity id count does not match factor rows")
    row = "%s" + ",%.17g" * U.shape[1] + "\n"
    with _open(path, "w") as fh:
        fh.write("entity_id," + ",".join(f"f{r + 1}" for r in range(U.shape[1])) + "\n")
        fh.writelines(row % (eid, *values)
                      for eid, values in zip(_fields(entity_ids), U.tolist()))


def read_factor_csv(path):
    """Read a factor matrix CSV; returns (entity_ids, array).

    Text without a double quote or a carriage return whose lines are all as
    wide as its header is split in one pass, as _read_triplets splits its
    text; other text is read by csv.reader, which names the line of its
    first fault. Either way every entry is parsed with float().
    """
    with _open(path) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    width = header.count(",") + 1
    fields = (_split_fields(body, width)
              if width >= 2 and '"' not in text and "\r" not in text else None)
    if fields is None:
        width, fields = _parse_factor_fields(path, text)
    ids = fields[0::width]
    del fields[0::width]
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError as exc:
        raise IngestionError(f"{path}: bad factor entry ({exc})") from exc
    return ids, values.reshape(len(ids), width - 1)


def _parse_factor_fields(path, text):
    """The header's width and the fields of the lines after it, in order, of a
    factor CSV's text by csv.reader, row by row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(next(reader, []))
    if width < 2:
        raise IngestionError(f"{path}:1: expected header entity_id,f1,...,fR")
    fields = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise IngestionError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        fields += row
    return width, fields


def save_factors(out_dir, shared, factors, observations):
    """shared.csv plus one <modality>.csv per factor, keyed by the observations' ids."""
    write_factor_csv(os.path.join(out_dir, "shared.csv"),
                     next(iter(observations.values())).shared_ids, shared)
    for name, U in factors.items():
        write_factor_csv(os.path.join(out_dir, f"{name}.csv"), observations[name].item_ids, U)


def load_factors(model_dir, names, observations, rank):
    """(shared, name -> factor) as save_factors wrote them. Each file must list
    the observations' ids in their order and have `rank` finite, non-negative
    columns; a model saved against another manifest, or a negative or
    non-finite entry, raises IngestionError."""
    def read(name, ids):
        path = os.path.join(model_dir, f"{name}.csv")
        got_ids, U = read_factor_csv(path)
        if got_ids != list(ids):
            raise IngestionError(f"{path}: its {len(got_ids)} entity ids do not match the "
                                 f"{len(ids)} ids of the observations, in order")
        if U.shape[1] != rank:
            raise IngestionError(f"{path}: rank {U.shape[1]} differs from the spec's rank {rank}")
        if not np.all(np.isfinite(U)) or np.any(U < 0):
            raise IngestionError(f"{path}: factor entries must be finite and non-negative")
        return U

    shared_ids = next(iter(observations.values())).shared_ids
    return read("shared", shared_ids), {n: read(n, observations[n].item_ids) for n in names}


def read_annotations(path):
    """anchor item -> {target item: relevance score in 0, 1, 2} from an annotation CSV."""
    annotations, first_line = {}, {}
    with _open(path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["anchor_item", "target_item", "score"]:
            raise IngestionError(f"{path}:1: expected header anchor_item,target_item,score")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 or row[2] not in ("0", "1", "2"):
                raise IngestionError(f"{path}:{lineno}: expected anchor,target,score in {{0,1,2}}")
            _note_line(first_line, (row[0], row[1]), path, lineno,
                       f"annotation of {row[0]!r}, {row[1]!r}")
            annotations.setdefault(row[0], {})[row[1]] = int(row[2])
    return annotations


def write_correspondence(path, row, k):
    """One CSV line per (target item, score) of a CorrespondenceRow's top k,
    ranked from 1; a bad k raises before the file is opened."""
    top = row.top(k)
    anchor = ",".join(map(_field, (row.anchor_modality, row.anchor_item, row.target_modality)))
    with _open(path, "w") as fh:
        fh.write("anchor_modality,anchor_item,target_modality,target_item,score,rank\n")
        for rank, (item, score) in enumerate(top, start=1):
            fh.write(f"{anchor},{_field(item)},{score:.17g},{rank}\n")


def binarize(obs):
    """Quantize to presence/absence: entry 1 iff source entry > 0. Idempotent."""
    kind = ObservationKind(obs.kind.distribution, BINARY)
    return ObservationMatrix(obs.modality, obs.shared_ids, obs.item_ids, kind, obs.values > 0)


def load_labels(path, shared_ids):
    """Read patient_id,label CSV aligned to shared_ids; returns int array."""
    labels, first_line = {}, {}
    with _open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["patient_id", "label"]:
            raise IngestionError(f"{path}:1: expected header patient_id,label")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 or row[1] not in ("0", "1"):
                raise IngestionError(f"{path}:{lineno}: expected patient_id,label with label in {{0,1}}")
            _note_line(first_line, row[0], path, lineno, f"label for patient {row[0]!r}")
            labels[row[0]] = int(row[1])
    try:
        return np.array([labels[p] for p in shared_ids], dtype=int)
    except KeyError as exc:
        raise IngestionError(f"{path}: missing label for patient {exc.args[0]!r}") from exc


def _take_patients(observations, idx):
    out = {}
    for name, obs in observations.items():
        out[name] = ObservationMatrix(name, [obs.shared_ids[i] for i in idx],
                                      obs.item_ids, obs.kind, obs.values[idx])
    return out


def class_permutations(labels, rng):
    """Indices of class 0, then of class 1, each shuffled by rng in that order."""
    labels = np.asarray(labels)
    members = [np.flatnonzero(labels == cls) for cls in (0, 1)]
    return [m[rng.permutation(len(m))] for m in members]


def stratified_split(labels, share, rng):
    """(first, rest), both sorted: first holds the first max(1, round(share * n))
    indices of each class permutation, rest the others."""
    first, rest = [], []
    for perm in class_permutations(labels, rng):
        cut = max(1, int(round(share * len(perm))))
        first.append(perm[:cut])
        rest.append(perm[cut:])
    return np.sort(np.concatenate(first)), np.sort(np.concatenate(rest))


def split_train_test(observations, labels=None, ratio=0.8, seed=0, stratify=False):
    """Partition patients by stratified_split over the labels (stratify) or one
    class; all modalities split consistently, and neither side is empty."""
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    if not observations:
        raise ValueError("need at least one modality to split")
    n = len(next(iter(observations.values())).shared_ids)
    if n < 2:
        raise ValueError("need at least 2 patients to split")
    if labels is not None:
        check_labels(labels, n, ValueError)
    classes = labels if stratify and labels is not None else np.zeros(n)
    train_idx, test_idx = stratified_split(classes, ratio, np.random.default_rng(seed))
    if test_idx.size == 0:
        raise ValueError(f"a split of {n} patients at ratio {ratio} leaves no test patient")
    train = _take_patients(observations, train_idx)
    test = _take_patients(observations, test_idx)
    if labels is None:
        return train, test
    labels = np.asarray(labels)
    return (train, labels[train_idx]), (test, labels[test_idx])


@dataclass
class SyntheticTruth:
    shared: np.ndarray
    modality_factors: dict


def _planted_factor(rng, rows, rank, sparsity, scale):
    U = rng.uniform(0.0, 1.0, size=(rows, rank))
    mask = rng.uniform(size=(rows, rank)) < sparsity
    # keep every column alive
    for r in range(rank):
        if not mask[:, r].any():
            mask[rng.integers(rows), r] = True
    col_scale = scale * rng.uniform(0.5, 1.5, size=rank)
    return U * mask * col_scale


def synth_generate(model_spec, modality_sizes, datatypes, n_patients,
                   sparsity=0.5, scale=1.0, seed=0):
    """Sample observations from planted factors via each tensor's marginal law.

    Marginals are sampled directly (sums of Poissons are Poisson, sums of
    Gaussians are Gaussian) so hidden tensors are never materialized. A
    modality referenced by several tensors is sampled from the first
    tensor that lists it.
    """
    check_setting("synth", "patients", n_patients, 1, integral=True)
    for name, size in modality_sizes.items():
        check_setting("synth", f"size of {name!r}", size, 1, integral=True)
    check_setting("synth", "sparsity", sparsity, 0, 1, open_low=True)
    check_setting("synth", "scale", scale, 0, open_low=True)
    for name in model_spec.modality_order:
        for what, given in (("size", modality_sizes), ("datatype", datatypes)):
            if name not in given:
                raise ConfigurationError(
                    f"modality {name!r}: a tensor lists it, but it has no {what}")
    kinds = {(tensor.id, name): tensor_kind(tensor, name, datatypes[name])
             for tensor in model_spec.tensors for name in tensor.modalities}
    referenced = {name for _, name in kinds}
    for name in modality_sizes:
        if name not in referenced:
            raise ConfigurationError(f"modality {name!r} is not referenced by any tensor")
    rng = np.random.default_rng(seed)
    R = model_spec.rank
    shared = _planted_factor(rng, n_patients, R, sparsity, scale)
    factors = {name: _planted_factor(rng, size, R, sparsity, scale)
               for name, size in modality_sizes.items()}
    shared_ids = [f"p{i}" for i in range(n_patients)]

    observations = {}
    for tensor in model_spec.tensors:
        mods = tensor.modalities
        blocks = [factors[m] for m in mods]
        for k, name in enumerate(mods):
            if name in observations:
                continue
            vhat = reconstruct_marginal(shared, blocks, k)
            kind = kinds[tensor.id, name]
            dtype = kind.datatype
            if tensor.distribution == POISSON:
                if dtype == INTEGER:
                    values = rng.poisson(vhat)
                else:
                    values = rng.uniform(size=vhat.shape) < -np.expm1(-vhat)
            else:
                params = GaussianParams(tensor.sigma2, multiplicity(blocks, k))
                if dtype == REAL:
                    std = math.sqrt(params.t_n * params.sigma2)
                    values = np.maximum(0.0, vhat + std * rng.standard_normal(vhat.shape))
                else:
                    p = gaussian_binary_prob(vhat, params)
                    values = rng.uniform(size=vhat.shape) < p
            item_ids = [f"{name}_{j}" for j in range(vhat.shape[1])]
            observations[name] = ObservationMatrix(name, shared_ids, item_ids, kind, values)

    return observations, SyntheticTruth(shared, factors)
