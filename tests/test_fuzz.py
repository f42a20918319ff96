"""A fuzzer over the rules that pick a command's pair, members and metrics.

Each example runs one command through `cli.main` in process, with stderr
captured and warnings raised as errors, and checks that it exits 0 exactly
when its input obeys the rule, that a failure prints one `error:` line, and
that a failed run leaves no output directory.
"""

import contextlib
import io
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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


def run(workspace, argv, manifest=None):
    """The exit code of one command on the store, or on another manifest next to
    it, writing into a fresh directory. A failure must print one `error:` line and
    leave no output directory."""
    default, root, counter = workspace
    out = root / f"out{next(counter)}"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([argv[0], "--manifest", str(manifest or default), *argv[1:], "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1), (argv, lines)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not out.exists(), argv
    else:
        assert lines == [] and (out / "result.json").is_file(), (argv, lines)
    return code


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
