"""A fuzzer over the rules that pick a command's pair, members and metrics,
and over the manifest and files of a store.

Each example runs commands through `cli.main` in process, with stderr
captured and warnings raised as errors. For the rules, it checks that a
command exits 0 exactly when its input obeys the rule, and that a failure
prints one `error:` line. For a store with one manifest field or one file
spoiled, it checks that every command exits 0, 1 or 2, and that a failure
prints one `error:` or `numerical error:` line. A failed run must leave no
output directory.
"""

import contextlib
import io
import itertools
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_datasets, write_kind_store
from ensdiag.cli import METRIC_ALIASES, main

DATASETS = ("ind", "ood", "extra")
MODELS = ("m0", "m1", "m2", "m3")
# Fixed, replayable draws: the same examples on every run, and no database.
FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Declared dataset ids, and strings that are not.
ids = st.sampled_from([*DATASETS, "nope", "", "IND"])
# Two ids, often a valid pair, or a list of any length.
id_lists = st.one_of(st.lists(ids, min_size=2, max_size=2), st.lists(ids, max_size=4))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A three-dataset store of four models, and a counter for fresh output paths."""
    root = tmp_path_factory.mktemp("fuzz")
    datasets = random_datasets(np.random.default_rng(11), DATASETS, MODELS, n=30, c=3)
    manifest = write_kind_store(root / "store", "probs", datasets, [("ind", "ood")])
    return manifest, root, itertools.count()


def run_in_process(argv, manifest, out, codes=(0, 1)):
    """The exit code of one command, run with warnings as errors, which must be one
    of `codes`. A failure must print one line, `error:` for exit 1 and `numerical
    error:` for exit 2, and leave no output directory."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([argv[0], "--manifest", str(manifest), *argv[1:], "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code in codes, (argv, lines)
    if code:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "numerical error: ")[code - 1]), (argv, lines)
        assert not out.exists(), argv
    else:
        assert lines == [] and (out / "result.json").is_file(), (argv, lines)
    return code


def run(workspace, argv, manifest=None):
    """The exit code of one command on the store, or on another manifest next to
    it, writing into a fresh directory: 0, or 1 with one `error:` line."""
    default, root, counter = workspace
    return run_in_process(argv, manifest or default, root / f"out{next(counter)}")


def _is_pair(pair) -> bool:
    return (isinstance(pair, list) and len(pair) == 2 and all(isinstance(d, str) and d in DATASETS for d in pair)
            and pair[0] != pair[1])


@FUZZ
@given(parts=id_lists)
def test_pair_argument(workspace, parts):
    # Extra colons, unknown ids, empty sides and one id twice.
    arg = ":".join(parts)
    assert (run(workspace, ["decompose", "--pair", arg]) == 0) == _is_pair(arg.split(":"))


pair_entries = st.one_of(
    id_lists, st.lists(st.one_of(ids, st.integers(-2, 2), st.none(), st.lists(ids, max_size=2)), max_size=3),
    ids, st.integers(-2, 2), st.none(), st.dictionaries(ids, ids, max_size=2),
)


@FUZZ
@given(pairs=st.one_of(st.lists(pair_entries, max_size=3), ids, st.none()), given_pair=st.booleans())
def test_manifest_pairs(workspace, pairs, given_pair):
    # Non-lists, wrong lengths and non-strings in the manifest's pairs.
    default = workspace[0]
    manifest = json.loads(default.read_text())
    manifest["pairs"] = pairs
    path = default.with_name(f"manifest{next(workspace[2])}.json")
    path.write_text(json.dumps(manifest))
    ok = isinstance(pairs, list) and all(_is_pair(p) for p in pairs) and (given_pair or bool(pairs))
    argv = ["decompose", *(["--pair", "ood:ind"] if given_pair else [])]
    assert (run(workspace, argv, path) == 0) == ok


tokens = st.sampled_from([*METRIC_ALIASES, " nll", "brier ", "zero_one", "auroc", ""])


@FUZZ
@given(metrics=st.one_of(st.lists(st.sampled_from(list(METRIC_ALIASES)), min_size=1, max_size=3, unique=True),
                         st.lists(tokens, min_size=1, max_size=4)))
def test_metric_list(workspace, metrics):
    names = [METRIC_ALIASES.get(t.strip()) for t in metrics]
    ok = None not in names and len(set(names)) == len(names)
    assert (run(workspace, ["trends", "--ensembles", "none", "--metric", ",".join(metrics)]) == 0) == ok


@FUZZ
@given(members=st.one_of(st.lists(st.sampled_from(MODELS), min_size=2, max_size=4, unique=True),
                         st.lists(st.sampled_from([*MODELS, "m9", "", "m0 "]), max_size=4)))
def test_members_spec(workspace, members):
    ok = len(members) >= 2 and set(members) <= set(MODELS) and len(set(members)) == len(members)
    assert (run(workspace, ["decompose", "--members", "+".join(members)]) == 0) == ok


# Every command that reads a store, on the fuzz store's models.
STORE_COMMANDS = (
    ["decompose"],
    ["conditional", "--surrogates", "3"],
    ["trends", "--metric", "01,nll,brier,ece,resce"],
    ["improve", "--base", "m0", "--alt-a", "m0+m1", "--alt-b", "m0+m2", "--control", "m3"],
)


@FUZZ
@given(kind=st.sampled_from(["probs", "logits"]),
       mutation=st.sampled_from(["truncate", "lengthen", "directory", "nan", "inf", "-inf", "label"]), data=st.data())
def test_spoiled_store_file(kind, mutation, data):
    # A member or labels file of any dataset is cut short, lengthened or replaced by a
    # directory; or a member entry becomes non-finite, or a label leaves [0, C).
    labels = mutation == "label" or (
        mutation in ("truncate", "lengthen", "directory") and data.draw(st.booleans(), label="labels file"))
    with tempfile.TemporaryDirectory() as tmp:
        datasets = random_datasets(np.random.default_rng(11), DATASETS, MODELS, n=30, c=3)
        manifest = write_kind_store(Path(tmp) / "store", kind, datasets, [("ind", "ood")])
        files = sorted(manifest.parent.glob("*_labels.i32" if labels else "*__*.f32"))
        path = data.draw(st.sampled_from(files), label="file")
        raw = path.read_bytes()
        if mutation == "truncate":
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        elif mutation == "lengthen":
            path.write_bytes(raw + bytes(data.draw(st.integers(1, 24), label="extra")))
        elif mutation == "directory":
            path.unlink()
            path.mkdir()
        else:
            values = np.frombuffer(raw, dtype="<i4" if labels else "<f4").copy()
            at = data.draw(st.integers(0, values.size - 1), label="entry")
            values[at] = data.draw(st.sampled_from([-1, 3, 2**31 - 1]), label="label") if labels else float(mutation)
            path.write_bytes(values.tobytes())
        for k, argv in enumerate(STORE_COMMANDS):
            run_in_process(argv, manifest, Path(tmp) / f"out{k}", codes=(0, 1, 2))


# Manifest fields, as paths into the manifest's JSON: whole sections, a pair and
# its side, every field of the first dataset and of the first model.
MANIFEST_FIELDS = (
    ("datasets",), ("models",), ("pairs",), ("pairs", 0), ("pairs", 0, 0),
    *(("datasets", 0, key) for key in ("id", "n", "c", "labels_file", "kind")),
    ("models", 0, "id"), ("models", 0, "files"), ("models", 0, "files", "ind"),
)
# A field's new value, as JSON text: a wrong type, a deep nesting, an integer
# past int64, or a string holding a NUL byte.
field_values = st.one_of(
    st.sampled_from(["null", "true", "1.5", '"x"', "[]", "{}"]),
    st.integers(2, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.one_of(st.integers(2**63, 2**80), st.integers(-2**80, -2**63 - 1)).map(str),
    st.builds(lambda a, b: json.dumps(f"{a}\0{b}"), st.sampled_from(["", "ind", "m0__ind.f32"]),
              st.sampled_from(["", "x"])),
)


@pytest.fixture(scope="module")
def logit_store(tmp_path_factory):
    """A two-dataset logit store of four models at 40 points and 3 classes, and a
    counter for fresh manifest and output paths."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    datasets = random_datasets(np.random.default_rng(5), ("ind", "ood"), MODELS, n=40, c=3)
    return write_kind_store(root, "logits", datasets, [("ind", "ood")]), itertools.count()


@FUZZ
@given(field=st.sampled_from(MANIFEST_FIELDS), value=field_values)
# 40 x (3 + 2**61) entries wrap to 120 in int64, the size of a 40 x 3 member file.
@example(field=("datasets", 0, "c"), value=str(3 + 2**61))
@example(field=("datasets", 0, "labels_file"), value=json.dumps("ind_labels.i32\0"))
def test_mutated_manifest_field(logit_store, field, value):
    manifest, counter = logit_store
    spoiled = json.loads(manifest.read_text())
    owner = spoiled
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = "@field@"
    k = next(counter)
    path = manifest.with_name(f"manifest{k}.json")
    path.write_text(json.dumps(spoiled).replace('"@field@"', value))
    for argv in STORE_COMMANDS:
        run_in_process(argv, path, manifest.with_name(f"out{k}_{argv[0]}"), codes=(0, 1, 2))
