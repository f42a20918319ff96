"""End-to-end command behavior: exit codes, file layout, reproducibility."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import ensdiag
import ensdiag.cli
from conftest import read_rows, write_kind_store
from ensdiag.cli import main
from ensdiag.conditional import PIVOT_TOL
from ensdiag.improvement import MMD_RANK_CAP
from ensdiag.metrics import compute_metric
from ensdiag.store import (BLOCK_ELEMENTS, StoredMember, form_ensemble, load_store, row_blocks, softmax,
                           write_store)

BASE_SIM = ["simulate", "--n-points", "60", "--classes", "3", "--models", "4", "--seed", "1"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(BASE_SIM + ["--out", out]) == 0
    return out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run(BASE_SIM + ["--out", tmp_path / "a"]) == 0

    def test_validation_error_is_one(self, tmp_path):
        code = run(["decompose", "--manifest", tmp_path / "missing.json", "--out", tmp_path / "b"])
        assert code == 1

    def test_usage_error_is_one(self, tmp_path):
        assert run(["simulate", "--out", tmp_path / "c", "--classes", "not-a-number"]) == 1

    def test_numerical_error_is_two(self, tmp_path):
        # Zero member noise gives a zero diversity curve: the d denominator
        # is nonpositive.
        sim = tmp_path / "flat"
        assert run(BASE_SIM + ["--noise", "0", "--out", sim]) == 0
        code = run([
            "conditional", "--manifest", sim / "manifest.json",
            "--surrogates", "5", "--out", tmp_path / "cond",
        ])
        assert code == 2

    def test_undefined_d_names_the_fit(self, tmp_path, capsys):
        sim = tmp_path / "flat"
        assert run(BASE_SIM + ["--noise", "0", "--out", sim]) == 0
        capsys.readouterr()
        assert run(["conditional", "--manifest", sim / "manifest.json", "--out", tmp_path / "cond"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error: observed fit: InD curve has nonpositive total ")
        assert "(minimum " in lines[0] and " at grid x = " in lines[0]
        assert not (tmp_path / "cond").exists()

    def test_nonempty_out_needs_force(self, tmp_path):
        out = tmp_path / "d"
        assert run(BASE_SIM + ["--out", out]) == 0
        assert run(BASE_SIM + ["--out", out]) == 1
        assert run(BASE_SIM + ["--out", out, "--force"]) == 0

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_or_sits_under_a_file(self, tmp_path, capsys, under, force):
        afile = tmp_path / "afile"
        afile.write_text("x")
        out = afile / "sub" if under else afile
        assert run(["gp-demo", "--out", out, *force]) == 1
        _one_error_line(capsys, f"cannot use {out} as the output directory")

    @pytest.mark.parametrize("argv,taken", [(["gp-demo"], "gp.svg"), (["report"], "index.json")],
                             ids=["gp-demo", "report"])
    def test_output_name_that_is_a_directory(self, tmp_path, capsys, argv, taken):
        out = tmp_path / "run"
        (out / taken).mkdir(parents=True)
        assert run([*argv, "--out", out, "--force"]) == 1
        _one_error_line(capsys, f"cannot write {out / taken}: ")


def _fail_kth_write(monkeypatch, k: int) -> list:
    """Count the run's file writes; the k-th (from 1; none for k = 0) writes half
    its data and then fails as a full disk does. Returns the final path of each
    write renamed into place, in order."""
    count, landed = [], []
    for name in ("write_text", "write_bytes"):
        def write(self, data, *rest, _real=getattr(Path, name), **kw):
            count.append(self)
            if len(count) != k:
                return _real(self, data, *rest, **kw)
            _real(self, data[:len(data) // 2], *rest, **kw)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(Path, name, write)

    def replace(self, target, _real=Path.replace):
        landed.append(Path(target))
        return _real(self, target)
    monkeypatch.setattr(Path, "replace", replace)
    return landed


def _entries(path: Path) -> dict:
    """{relative path: bytes, or None for a directory} of everything under `path`."""
    return {str(p.relative_to(path)): None if p.is_dir() else p.read_bytes() for p in sorted(path.rglob("*"))}


class TestFailedRunLeavesNothing:
    """`cli.main` removes what a failed run added, and nothing that was there before."""

    MEMBERS = ["--base", "m000", "--alt-a", "m001", "--alt-b", "m002", "--control", "m003"]
    COMMANDS = {
        "simulate": ["simulate", "--n-points", "30", "--classes", "3", "--models", "3"],
        "decompose": ["decompose"],
        "conditional": ["conditional", "--surrogates", "3"],
        "trends": ["trends"],
        "improve": ["improve", *MEMBERS],
        "gp-demo": ["gp-demo"],
    }

    @pytest.mark.parametrize("argv", [["decompose"], ["improve", *MEMBERS]], ids=["decompose", "improve"])
    def test_dataset_id_too_long_for_a_file_name(self, tmp_path, capsys, argv):
        store = tmp_path / "store"
        assert run(["simulate", "--n-points", "40", "--n-ood", "30", "--classes", "3", "--models", "4",
                    "--seed", "1", "--out", store]) == 0
        manifest = json.loads((store / "manifest.json").read_text())
        _rename(manifest, "dataset", "ood", "o" * 300)
        (store / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run([*argv, "--manifest", store / "manifest.json", "--out", tmp_path / "x"]) == 1
        _one_error_line(capsys, f"cannot write {tmp_path / 'x'}/", "name too long")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_failed_write_leaves_no_output_directory(self, sim_dir, tmp_path, capsys, monkeypatch, command):
        argv = self.COMMANDS[command]
        if command not in ("simulate", "gp-demo"):
            argv = [*argv, "--manifest", sim_dir / "manifest.json"]
        with monkeypatch.context() as patch:
            written = _fail_kth_write(patch, 0)
            assert run([*argv, "--out", tmp_path / "ok"]) == 0
        assert len(written) >= 3
        for k in range(1, len(written) + 1):
            # The run makes both directories; neither may outlive its failure.
            out = tmp_path / f"fail{k}" / "out"
            capsys.readouterr()
            with monkeypatch.context() as patch:
                _fail_kth_write(patch, k)
                assert run([*argv, "--out", out]) == 1, k
            _one_error_line(capsys, f"cannot write {out / written[k - 1].name}: No space left on device")
            assert not (tmp_path / f"fail{k}").exists(), k

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_force_run_keeps_the_file_it_was_replacing(self, sim_dir, tmp_path, monkeypatch, command):
        # Each file is written whole to a temporary and then renamed onto its name, so
        # a --force run whose last write fails leaves the previous run's bytes there.
        argv = self.COMMANDS[command]
        if command not in ("simulate", "gp-demo"):
            argv = [*argv, "--manifest", sim_dir / "manifest.json"]
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 0
        before = _entries(out)
        with monkeypatch.context() as patch:
            _fail_kth_write(patch, len(before))  # each write makes one file: fail the last
            assert run([*argv, "--out", out, "--force"]) == 1
        assert _entries(out) == before

    def test_out_name_too_long_leaves_no_parent_it_made(self, tmp_path, capsys):
        out = tmp_path / "new" / ("x" * 300)
        assert run(["gp-demo", "--out", out]) == 1
        _one_error_line(capsys, f"cannot write {out}/", "name too long")
        assert not (tmp_path / "new").exists()

    def test_parent_that_another_run_wrote_to_stays(self, tmp_path, monkeypatch):
        other = tmp_path / "new" / "other" / "result.json"

        def fail(self, data, *rest, **kw):  # another run writes next to this one, which then fails
            other.parent.mkdir()
            other.write_bytes(b"{}")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(Path, "write_text", fail)
        assert run(["gp-demo", "--out", tmp_path / "new" / "run"]) == 1
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["other"]
        assert other.read_bytes() == b"{}"

    def _failed_decompose(self, sim_dir, out, monkeypatch, *force):
        """Run decompose into `out` with its last write, result.json's, failing."""
        with monkeypatch.context() as patch:
            _fail_kth_write(patch, 9)
            assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--out", out, *force]) == 1

    def test_empty_out_that_existed_is_empty_again(self, sim_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        self._failed_decompose(sim_dir, out, monkeypatch)
        assert out.is_dir() and not any(out.iterdir())

    def test_failed_force_run_keeps_every_entry_that_was_there(self, sim_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        (out / "notes").mkdir(parents=True)
        (out / "notes" / "a.txt").write_text("kept")
        (out / "keep.csv").write_text("x\n1\n")
        (out / "decompose_quadratic_ind.csv").write_text("old\n")  # the run's first write replaces it
        before = _entries(out)
        self._failed_decompose(sim_dir, out, monkeypatch, "--force")
        after = _entries(out)
        assert sorted(after) == sorted(before)
        assert {p: b for p, b in after.items() if p != "decompose_quadratic_ind.csv"} == {
            p: b for p, b in before.items() if p != "decompose_quadratic_ind.csv"}
        assert after["decompose_quadratic_ind.csv"].startswith(b"index,total,")

    @pytest.mark.parametrize("command", ["gp-demo", "decompose", "report"])
    def test_out_that_names_a_file_is_left_intact(self, sim_dir, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_bytes(b"\x00kept\n")
        argv = [command, "--manifest", sim_dir / "manifest.json"] if command == "decompose" else [command]
        assert run([*argv, "--out", afile, "--force"]) == 1
        assert afile.read_bytes() == b"\x00kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "sim"]

    @pytest.mark.parametrize("indexed", [False, True], ids=["new-index", "forced-index"])
    def test_failed_report_leaves_the_run_directory_as_it_was(self, sim_dir, monkeypatch, indexed):
        if indexed:
            (sim_dir / "index.json").write_text("{}\n")
        before = _entries(sim_dir)
        with monkeypatch.context() as patch:
            _fail_kth_write(patch, 1)
            assert run(["report", "--out", sim_dir, "--force"]) == 1
        assert _entries(sim_dir) == before


# Each JSON input, and the command that reads it.
JSON_INPUTS = {
    "manifest": ("{sim}/manifest.json", ["decompose", "--manifest", "{sim}/manifest.json", "--out", "{tmp}/x"]),
    "ensembles": ("{tmp}/ens.json", ["trends", "--manifest", "{sim}/manifest.json",
                                     "--ensembles", "{tmp}/ens.json", "--out", "{tmp}/x"]),
    "result": ("{sim}/result.json", ["report", "--out", "{sim}"]),
}


@pytest.mark.parametrize("content,expected", [
    (b"\xff{", "can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"datasets": ' + b"9" * 5000 + b"}", "integer string conversion"),
], ids=["non-utf8", "nested", "huge-int"])
@pytest.mark.parametrize("case", sorted(JSON_INPUTS))
def test_unreadable_json_is_one_error_line(sim_dir, tmp_path, capsys, case, content, expected):
    path, argv = JSON_INPUTS[case]
    Path(path.format(sim=sim_dir, tmp=tmp_path)).write_bytes(content)
    capsys.readouterr()
    assert run([a.format(sim=sim_dir, tmp=tmp_path) for a in argv]) == 1
    _one_error_line(capsys, "is not readable JSON", expected)
    assert not (tmp_path / "x").exists()


def _drop_key(entries, key):
    del entries[0][key]


MALFORMED_MANIFESTS = {
    "missing_n": (lambda m, d: _drop_key(m["datasets"], "n"), "dataset 'ind'"),
    "missing_files": (lambda m, d: _drop_key(m["models"], "files"), "model 'm000'"),
    "three_element_pair": (lambda m, d: m["pairs"][0].append("ind"), "pair"),
    "models_object": (lambda m, d: m.update(models={e["id"]: e for e in m["models"]}), "'models'"),
    "n_not_integer": (lambda m, d: m["datasets"][0].update(n="abc"), "dataset 'ind'"),
    "missing_labels_file": (lambda m, d: (d / m["datasets"][0]["labels_file"]).unlink(), "dataset 'ind'"),
    "missing_prediction_file": (lambda m, d: (d / m["models"][0]["files"]["ind"]).unlink(), "m000/ind"),
    # A second 'ind' entry pointing at the OOD labels.
    "repeated_dataset_id": (lambda m, d: m["datasets"].append({**m["datasets"][1], "id": "ind"}),
                            "dataset 'ind' is declared twice"),
    "pair_of_one_dataset": (lambda m, d: m["pairs"].append(["ood", "ood"]),
                            "pair ['ood', 'ood'] names dataset 'ood' on both sides"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_one_error_line(sim_dir, tmp_path, capsys, case):
    mutate, expected = MALFORMED_MANIFESTS[case]
    path = sim_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["datasets"][0]["id"] == "ind" and manifest["models"][0]["id"] == "m000"
    mutate(manifest, sim_dir)
    path.write_text(json.dumps(manifest))
    code = run(["decompose", "--manifest", path, "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and expected in lines[0]


def _rename(manifest, kind, old, new):
    """Rename one dataset or model id everywhere the manifest names it."""
    if kind == "model":
        for entry in manifest["models"]:
            entry["id"] = new if entry["id"] == old else entry["id"]
        return
    for entry in manifest["datasets"]:
        entry["id"] = new if entry["id"] == old else entry["id"]
    for entry in manifest["models"]:
        entry["files"] = {new if d == old else d: f for d, f in entry["files"].items()}
    manifest["pairs"] = [[new if d == old else d for d in pair] for pair in manifest["pairs"]]


@pytest.mark.parametrize("kind,old,new", [
    ("dataset", "ood", "sub/ood"), ("dataset", "ood", "sub\\ood"), ("dataset", "ind", "in d"),
    ("dataset", "ood", ""), ("model", "m000", "a,b"), ("model", "m000", "m0+m1"),
    ("model", "m001", "a:b"), ("model", "m001", "a\tb"),
])
def test_unsafe_id_is_one_error_line(sim_dir, tmp_path, capsys, kind, old, new):
    # Ids become file names, CSV cells, member specs and pair sides.
    path = sim_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    _rename(manifest, kind, old, new)
    path.write_text(json.dumps(manifest))
    code = run(["decompose", "--manifest", path, "--out", tmp_path / "x"])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {kind} id {new!r} ")
    assert not (tmp_path / "x").exists()


# Manifest fields and the JSON type each must have.
MANIFEST_FIELDS = {
    ("datasets", "id"): str, ("datasets", "n"): int, ("datasets", "c"): int,
    ("datasets", "labels_file"): str, ("datasets", "kind"): str,
    ("models", "id"): str, ("models", "files"): dict,
    (None, "datasets"): list, (None, "models"): list, (None, "pairs"): list,
}
REQUIRED_FIELDS = [f for f in MANIFEST_FIELDS if f[1] not in ("kind", "pairs")]
WRONG_TYPED = {
    str: [None, 3, 2.5, True, ["ind"], {"a": "b"}],
    int: [None, "60", 60.0, True, [60], {"a": 60}],
    dict: [None, "ind", 3, ["ind"]],
    list: [None, "ind", 3, {"a": 1}],
}


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "sim"
    assert run(["simulate", "--n-points", "30", "--classes", "3", "--models", "3", "--out", out]) == 0
    (out / "result.json").unlink()
    return out


def _mutate(kind, manifest, root, data):
    """Apply one mutation of the given kind to a manifest and the files beside it."""
    if kind in ("drop_key", "wrong_type"):
        section, key = data.draw(st.sampled_from(REQUIRED_FIELDS if kind == "drop_key" else list(MANIFEST_FIELDS)))
        target = manifest if section is None else data.draw(st.sampled_from(manifest[section]))
        if kind == "drop_key":
            del target[key]
        else:
            target[key] = data.draw(st.sampled_from(WRONG_TYPED[MANIFEST_FIELDS[section, key]]))
    elif kind == "repeat_dataset_id":
        entry = data.draw(st.sampled_from(manifest["datasets"]))
        manifest["datasets"].append({**entry, "id": data.draw(st.sampled_from(["ind", "ood"]))})
    else:
        labels = kind == "label_out_of_range"
        files = sorted(d["labels_file"] for d in manifest["datasets"]) if labels else sorted(
            f for m in manifest["models"] for f in m["files"].values())
        path = root / data.draw(st.sampled_from(files))
        if kind == "truncate":
            raw = path.read_bytes()
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
            return
        values = np.fromfile(path, dtype="<i4" if labels else "<f4")
        at = data.draw(st.integers(0, values.size - 1))
        values[at] = data.draw(st.sampled_from([-1, 3, 2**31 - 1])) if labels else np.nan
        values.tofile(path)


@given(st.sampled_from(["drop_key", "wrong_type", "truncate", "nan_logits", "label_out_of_range",
                        "repeat_dataset_id"]), st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_manifest_is_one_error_line(fuzz_base, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(shutil.copytree(fuzz_base, Path(tmp) / "store"))
        manifest = json.loads((root / "manifest.json").read_text())
        _mutate(kind, manifest, root, data)
        (root / "manifest.json").write_text(json.dumps(manifest))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["decompose", "--manifest", root / "manifest.json", "--out", Path(tmp) / "out"])
    assert code == 1
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command,argv,repeated", [
    ("decompose", ["--members", "m000+m001+m001"], "m001"),
    ("conditional", ["--members", "m000+m000"], "m000"),
    ("improve", ["--base", "m000", "--alt-a", "m001+m001", "--alt-b", "m002", "--control", "m003"], "m001"),
])
def test_repeated_member_is_one_error_line(sim_dir, tmp_path, capsys, command, argv, repeated):
    code = run([command, "--manifest", sim_dir / "manifest.json", *argv, "--out", tmp_path / "x"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"repeats model {repeated!r}" in err[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,argv,expected", [
    ("decompose", ["--members", "m000+zz"], "--members 'm000+zz' references unknown model 'zz'"),
    ("conditional", ["--members", "m000+m003"],
     "--members 'm000+m003' references model 'm003', not predicted on both 'ind' and 'ood'"),
    ("improve", ["--base", "m000", "--alt-a", "m001", "--alt-b", "m002", "--control", "zz"],
     "--control 'zz' references unknown model 'zz'"),
    ("improve", ["--base", "m000", "--alt-a", "m001", "--alt-b", "m003", "--control", "m002"],
     "--alt-b 'm003' references model 'm003', not predicted on both 'ind' and 'ood'"),
    ("trends", ["--ensembles", [["m000", "zz"]]], "--ensembles entry 0 references unknown model 'zz'"),
], ids=["members-unknown", "members-unshared", "control-unknown", "alt-b-unshared", "ensembles-unknown"])
def test_unshared_member_names_flag_and_model(sim_dir, tmp_path, capsys, command, argv, expected):
    # m003 has no OOD predictions, and no model is named zz.
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    del manifest["models"][3]["files"]["ood"]
    (sim_dir / "manifest.json").write_text(json.dumps(manifest))
    if command == "trends":
        (tmp_path / "ens.json").write_text(json.dumps(argv[1]))
        argv = [argv[0], tmp_path / "ens.json"]
    code = run([command, "--manifest", sim_dir / "manifest.json", *argv, "--out", tmp_path / "x"])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {expected}"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["decompose", "--seed", "1"], ["gp-demo", "--no-timestamp"]],
                         ids=["decompose-seed", "gp-demo-no-timestamp"])
def test_removed_flag_is_one_error_line(sim_dir, tmp_path, capsys, argv):
    manifest = ["--manifest", sim_dir / "manifest.json"] if argv[0] == "decompose" else []
    assert run([*argv, *manifest, "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: ")
    assert not (tmp_path / "x").exists()


def _limit_address_space():
    # 4 GiB: an allocation past it fails at once, whatever the overcommit policy.
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv", [["gp-demo", "--bins", "1000000000000"],
                                  ["conditional", "--bins", "1000000000000"],
                                  ["trends", "--bins", "1000000000000"],
                                  ["trends", "--het-bins", "1000000000000"]],
                         ids=["gp-demo", "conditional", "trends", "trends-het-bins"])
def test_out_of_memory_is_one_error_line(sim_dir, tmp_path, argv):
    manifest = [] if argv[0] == "gp-demo" else ["--manifest", str(sim_dir / "manifest.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "ensdiag", *argv, *manifest, "--out", str(tmp_path / "x")],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(Path(ensdiag.__file__).parents[1])},
    )
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_pipeline_script_quick_start(tmp_path):
    # The README quick start, shrunk: every stage must accept the flags the script passes.
    repo = Path(ensdiag.__file__).parents[2]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_synthetic_pipeline.py"), "--out", str(tmp_path),
         "--n-points", "200", "--models", "4", "--surrogates", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(repo / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "index.json").read_text())["n_runs"] == 6


def test_readme_library_example(sim_dir):
    # The README's "Library" code block, run on a small simulated store with fewer surrogates.
    readme = (Path(ensdiag.__file__).parents[2] / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert code.count('"runs/sim/manifest.json"') == code.count("n_surrogates=200") == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code.replace("runs/sim", str(sim_dir)).replace("n_surrogates=200", "n_surrogates=20"), {})
    d, p_value = map(float, out.getvalue().split())
    assert np.isfinite(d) and 0.0 < p_value <= 1.0


# Modules a probe reports: the package's, any of scipy's, and numpy.ma.
WATCHED = 'sorted(m for m in sys.modules if m.split(".")[0] in ("ensdiag", "scipy") or m == "numpy.ma")'

IMPORT_PROBE = f"""
import json, sys
import ensdiag
root = sorted(m for m in sys.modules if m == "numpy" or m.startswith("ensdiag."))
import ensdiag.cli
print(json.dumps({{"root": root, "cli": {WATCHED}}}))
"""


def _probe(script, *args):
    src = str(Path(ensdiag.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(proc.stdout)


# What every process loads: parsing, dispatch, the writers and the store layer.
CLI_MODULES = ["ensdiag", "ensdiag.cli", "ensdiag.errors", "ensdiag.store"]


def test_imports_stay_lean():
    # The package root loads nothing; the CLI start-up loads no analysis module, no scipy and no numpy.ma.
    assert _probe(IMPORT_PROBE) == {"root": [], "cli": CLI_MODULES}


MAIN_PROBE = f"""
import json, sys
from ensdiag.cli import main
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": {WATCHED}}}))
"""


# Every command loads its own analysis modules and no others, no scipy module and no numpy.ma.
@pytest.mark.parametrize("argv, modules", [
    ([*BASE_SIM, "--out", "{tmp}/store"], ["simulate"]),
    (["decompose", "--manifest", "{sim}/manifest.json", "--out", "{tmp}/dec"], ["decomposition", "metrics"]),
    (["trends", "--manifest", "{sim}/manifest.json", "--metric", "01,nll,brier,ece,resce", "--out", "{tmp}/tr"],
     ["metrics", "svgplot", "trends"]),
    (["trends", "--manifest", "{sim}/manifest.json", "--metric", "01,nll,brier,ece,resce", "--het-bins", "2",
      "--out", "{tmp}/tr"], ["metrics", "svgplot", "trends"]),
    (["conditional", "--manifest", "{sim}/manifest.json", "--surrogates", "3", "--out", "{tmp}/cond"],
     ["conditional", "decomposition", "metrics", "svgplot"]),
    (["improve", "--manifest", "{sim}/manifest.json", "--base", "m000", "--alt-a", "m000+m001",
      "--alt-b", "m000+m002", "--control", "m003", "--out", "{tmp}/imp"],
     ["conditional", "improvement", "metrics", "svgplot"]),
    (["gp-demo", "--out", "{tmp}/gp"], ["gp", "svgplot"]),
    (["report", "--out", "{sim}"], []),
], ids=["simulate", "decompose", "trends", "trends-het-bins", "conditional", "improve", "gp-demo", "report"])
def test_commands_run_without_scipy_linalg_or_special(sim_dir, tmp_path, argv, modules):
    argv = [a.format(tmp=tmp_path, sim=sim_dir) for a in argv]
    expected = sorted(CLI_MODULES + [f"ensdiag.{m}" for m in modules])
    assert _probe(MAIN_PROBE, *argv) == {"code": 0, "loaded": expected}


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, so only commands that draw pay for it.
    script = "import json, sys\nimport ensdiag.cli\nprint(json.dumps('numpy.random' in sys.modules))"
    assert _probe(script) is False


@pytest.mark.parametrize("argv", [
    ["decompose", "--manifest", "{sim}/manifest.json", "--out", "{tmp}/out"],
    ["trends", "--manifest", "{sim}/manifest.json", "--out", "{tmp}/out"],
    ["improve", "--manifest", "{sim}/manifest.json", "--base", "m000", "--alt-a", "m000+m001",
     "--alt-b", "m000+m002", "--control", "m003", "--out", "{tmp}/out"],
    ["gp-demo", "--out", "{tmp}/out"],
], ids=lambda argv: argv[0])
def test_no_command_records_scipy(sim_dir, tmp_path, argv):
    # scipy is already loaded in this process; the record depends on the command alone.
    assert run([a.format(tmp=tmp_path, sim=sim_dir) for a in argv]) == 0
    versions = json.loads((tmp_path / "out" / "result.json").read_text())["versions"]
    assert sorted(versions) == ["numpy", "package", "python"]


class TestSimulateCommand:
    def test_outputs(self, sim_dir):
        assert (sim_dir / "manifest.json").is_file()
        result = json.loads((sim_dir / "result.json").read_text())
        assert result["command"] == "simulate"
        assert result["spec"]["seed"] == 1
        assert "numpy" in result["versions"]

    @pytest.mark.parametrize("taken", ["m000__ind.f32", "manifest.json"])
    def test_store_file_that_is_a_directory(self, sim_dir, capsys, taken):
        (sim_dir / taken).unlink()
        (sim_dir / taken).mkdir()
        capsys.readouterr()
        assert run(BASE_SIM + ["--out", sim_dir, "--force"]) == 1
        _one_error_line(capsys, f"cannot write {sim_dir / taken}: ")


class TestPairArgument:
    def test_pair_picks_the_datasets_in_order(self, sim_dir, tmp_path):
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--pair", "ood:ind", "--out", out]) == 0
        assert json.loads((out / "result.json").read_text())["inputs"]["pair"] == ["ood", "ind"]

    @pytest.mark.parametrize("pair,expected", [("ind", "--pair 'ind' must name two datasets, IND and OOD"),
                                               ("ind:nope", "--pair 'ind:nope' references unknown dataset 'nope'")],
                             ids=["no-colon", "unknown-id"])
    def test_bad_pair_is_one_error_line(self, sim_dir, tmp_path, capsys, pair, expected):
        capsys.readouterr()
        assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--pair", pair,
                    "--out", tmp_path / "dec"]) == 1
        _one_error_line(capsys, expected)

    @pytest.mark.parametrize("argv", [
        ["decompose"], ["conditional", "--surrogates", "3"], ["trends"],
        ["improve", "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002", "--control", "m003"],
    ], ids=lambda argv: argv[0])
    def test_pair_of_one_dataset_is_one_error_line(self, sim_dir, tmp_path, capsys, argv):
        capsys.readouterr()
        assert run([*argv, "--manifest", sim_dir / "manifest.json", "--pair", "ind:ind",
                    "--out", tmp_path / "out"]) == 1
        _one_error_line(capsys, "--pair 'ind:ind' names dataset 'ind' on both sides")
        assert not (tmp_path / "out").exists()

    def test_no_pair_anywhere_is_one_error_line(self, sim_dir, tmp_path, capsys):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        manifest["pairs"] = []
        (sim_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--out", tmp_path / "dec"]) == 1
        _one_error_line(capsys, "manifest declares no pairs")


class TestDecomposeCommand:
    def test_zero_noise_diversity_column(self, tmp_path):
        sim = tmp_path / "flat"
        assert run(BASE_SIM + ["--noise", "0", "--out", sim]) == 0
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim / "manifest.json", "--out", out]) == 0
        header, rows = read_csv(out / "decompose_quadratic_ind.csv")
        div_col = header.index("diversity")
        assert all(float(row[div_col]) == 0.0 for row in rows)

    def test_files_and_aggregates(self, sim_dir, tmp_path):
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim_dir / "manifest.json", "--out", out]) == 0
        for family in ("quadratic", "entropy", "brier_gap", "nll_gap"):
            for ds in ("ind", "ood"):
                assert (out / f"decompose_{family}_{ds}.csv").is_file()
        result = json.loads((out / "result.json").read_text())
        agg = result["aggregates"]["ind"]["quadratic"]
        assert agg["max_abs_residual"] < 1e-10
        assert result["settings"]["nll_eps"] == 1e-12

    def test_clamped_point_is_reported_unchecked(self, tmp_path):
        # Point 0 of each dataset: one member gives its true class 0 and four give
        # 1e-11, so its true-class likelihoods hit NLL_EPS and nll_gap leaves it
        # unchecked. The reported maxima cover the checked points only.
        rng = np.random.default_rng(4)
        datasets = {}
        for ds in ("ind", "ood"):
            labels = rng.integers(0, 3, size=20)
            labels[0] = 0
            members = {}
            for k in range(5):
                probs = rng.dirichlet(np.ones(3), size=20)
                probs[0] = [0.0, 1.0, 0.0] if k == 0 else [1e-11, 1.0 - 1e-11, 0.0]
                members[f"m{k}"] = probs
            datasets[ds] = labels, members
        manifest = write_kind_store(tmp_path / "store", "probs", datasets, [("ind", "ood")])
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", manifest, "--out", out]) == 0
        aggregates = json.loads((out / "result.json").read_text())["aggregates"]
        for by_family in aggregates.values():
            assert all(agg["max_abs_residual"] <= 1e-10 for agg in by_family.values()), by_family
            assert {f: agg["unchecked_points"] for f, agg in by_family.items()} == {
                "quadratic": 0, "entropy": 0, "brier_gap": 0, "nll_gap": 1}


class TestConditionalCommand:
    def test_outputs_and_settings(self, sim_dir, tmp_path):
        out = tmp_path / "cond"
        code = run([
            "conditional", "--manifest", sim_dir / "manifest.json",
            "--surrogates", "19", "--bins", "50", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out / "curves.csv")
        assert header == ["x", "y_ind", "y_ood"]
        assert len(rows) == 50
        result = json.loads((out / "result.json").read_text())
        assert result["n_surrogates"] == 19
        p_scaled = result["p_value"] * 20
        assert abs(p_scaled - round(p_scaled)) < 1e-9
        settings = result["settings"]
        for key in ("bandwidth_ind", "bandwidth_ood", "ridge_ind", "ridge_ood",
                    "grid_size", "trim_percentiles", "nll_eps"):
            assert key in settings
        assert 1 <= settings["krr_rank_ind"] < 60
        assert 1 <= settings["krr_rank_ood"] < 60
        assert settings["pivot_tol"] == 1e-13
        assert settings["grid_size"] == 50
        assert (out / "conditional.svg").is_file()

    def test_integral_d(self, tmp_path):
        # At 2,000 points the InD curve stays positive over the grid; on smaller stores it may not.
        sim, out = tmp_path / "sim", tmp_path / "cond"
        assert run(["simulate", "--n-points", "2000", "--models", "5", "--seed", "0", "--out", sim]) == 0
        assert run(["conditional", "--manifest", sim / "manifest.json", "--surrogates", "20",
                    "--integral-d", "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["settings"]["d_form"] == "integral"
        d, surrogates = result["d_statistic"], np.array(result["d_surrogates"])
        assert result["p_value"] == (np.count_nonzero(surrogates >= d) + 1) / 21
        x, y_ind, y_ood = np.array([[float(v) for v in row] for row in read_csv(out / "curves.csv")[1]]).T
        assert abs(d - trapezoid((y_ood - y_ind) / y_ind, x)) < 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: the kernel ridge curve of this InD subsample has total -1.087, "
                              "so d is undefined and the run exits 2")
    def test_subsample_where_kernel_ridge_goes_negative(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-points", 3000, "--n-ood", 600, "--classes", 100, "--models", 5, "--seed", 1,
                    "--out", sim]) == 0
        assert run(["conditional", "--manifest", sim / "manifest.json", "--subsample", 400, "--surrogates", 5,
                    "--out", tmp_path / "cond"]) == 0

    # Bounded and enumerated flags of every command; ids of the conditional cases omit the command.
    @pytest.mark.parametrize("command,flag,value", [
        ("conditional", "--bins", 0), ("conditional", "--bins", 1), ("conditional", "--subsample", -5),
        ("conditional", "--subsample", 1),
        ("conditional", "--surrogates", 0), ("conditional", "--family", "renyi"),
        ("trends", "--bins", 0), ("trends", "--het-bins", -1), ("gp-demo", "--bins", 0),
        ("simulate", "--n-points", 0), ("simulate", "--classes", 1), ("simulate", "--models", 0),
        ("simulate", "--noise", -0.5), ("simulate", "--noise", "nan"), ("simulate", "--shift", -1),
        ("conditional", "--seed", -1), ("trends", "--seed", -1), ("gp-demo", "--seed", -1),
        ("simulate", "--seed", -1),
    ], ids=["--bins-0", "--bins-1", "--subsample--5", "--subsample-1", "--surrogates-0", "--family-renyi",
            "trends---bins-0", "trends---het-bins--1", "gp-demo---bins-0",
            "simulate---n-points-0", "simulate---classes-1", "simulate---models-0",
            "simulate---noise--0.5", "simulate---noise-nan", "simulate---shift--1",
            "--seed--1", "trends---seed--1", "gp-demo---seed--1", "simulate---seed--1"])
    def test_bad_argument_names_flag(self, sim_dir, tmp_path, capsys, command, flag, value):
        manifest = [] if command in ("gp-demo", "simulate") else ["--manifest", sim_dir / "manifest.json"]
        code = run([command, *manifest, flag, value, "--out", tmp_path / "x"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: argument {flag}: ")
        assert not (tmp_path / "x").exists()


class TestTrendsCommand:
    def test_pair_without_shared_models_is_one_error_line(self, tmp_path, capsys):
        # Three models predicted on ind only: no model has predictions on both datasets.
        rng = np.random.default_rng(2)
        members = [(f"m{k}", rng.standard_normal((20, 3))) for k in range(3)]
        manifest = write_store(tmp_path / "store", 3, [("ind", rng.integers(0, 3, 20), members),
                                                       ("ood", rng.integers(0, 3, 10), [])], [("ind", "ood")])
        out = tmp_path / "tr"
        capsys.readouterr()
        assert run(["trends", "--manifest", manifest, "--out", out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: need at least two member models on both datasets"]
        assert not out.exists()

    def test_single_class_all_row(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "brier", "--ensembles", "none", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        by_class = {row["model_class"]: row for row in result["table"]}
        assert set(by_class) == {"All", "Single Model"}
        assert by_class["All"]["coefficient"] == by_class["Single Model"]["coefficient"]
        assert by_class["All"]["n"] == 4

    def test_table_csv_columns(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "01,brier", "--out", out,
        ])
        assert code == 0
        header, rows = read_csv(out / "trend_table.csv")
        assert header == ["metric", "model_class", "coefficient", "std_error",
                          "t_statistic", "p_value", "r2", "n"]
        metrics = {row[0] for row in rows}
        assert metrics == {"zero_one", "brier"}
        assert (out / "trends_zero_one.svg").is_file()
        assert (out / "trend_points.csv").is_file()

    def test_loo_ensembles_and_ratio(self, sim_dir, tmp_path):
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "brier", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["ensembles"]) == 4
        assert all(len(members) == 3 for members in result["ensembles"])
        assert result["diversity_ratio"] is not None
        assert result["diversity_ratio"]["ratio"] > 0.0

    @pytest.mark.parametrize("ensembles,expected", [
        ("none", "at least one ensemble"),
        ([["m000"]], "fewer than two members"),
        ([["m000", "m001"]], "zero mean diversity"),
    ])
    def test_skipped_ratio_records_reason(self, sim_dir, tmp_path, ensembles, expected):
        # m001 becomes a copy of m000, so the two have no diversity.
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        manifest["models"][1]["files"] = manifest["models"][0]["files"]
        (sim_dir / "manifest.json").write_text(json.dumps(manifest))
        if ensembles != "none":
            (tmp_path / "ens.json").write_text(json.dumps(ensembles))
            ensembles = tmp_path / "ens.json"
        out = tmp_path / "tr"
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json", "--metric", "01",
            "--ensembles", ensembles, "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert list(result["diversity_ratio"]) == ["skipped"]
        assert expected in result["diversity_ratio"]["skipped"]

    @pytest.mark.parametrize("content,expected", [
        ([["m000", "m001"], "m002"], "entry 1"),
        ([["m000", 3]], "entry 0"),
        ({"a": ["m000", "m001"]}, "JSON list"),
        ([["m000", "m001"], ["m002", "m003"]], "entry 1 references model 'm003', not predicted on both"),
        ([["m000", "m001"], ["m000", "m002"], ["m001", "m000"]], "entry 2 has the same members as entry 0"),
        ([[]], "entry 0 has no members"),
        ([["m000", "m000"]], "entry 0 repeats model 'm000'"),
    ])
    def test_malformed_ensembles_file(self, sim_dir, tmp_path, capsys, content, expected):
        # m003 has no OOD predictions, so an entry naming it cannot be scored on the pair.
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["models"][3]["id"] == "m003"
        del manifest["models"][3]["files"]["ood"]
        (sim_dir / "manifest.json").write_text(json.dumps(manifest))
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(content))
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--ensembles", path, "--out", tmp_path / "x",
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --ensembles") and expected in err[0]
        assert not (tmp_path / "x").exists()

    def test_repeated_metric_is_one_error_line(self, sim_dir, tmp_path, capsys):
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "brier,01,brier", "--out", tmp_path / "x",
        ])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: --metric names 'brier' twice"]
        assert not (tmp_path / "x").exists()

    def test_unknown_metric(self, sim_dir, tmp_path):
        code = run([
            "trends", "--manifest", sim_dir / "manifest.json",
            "--metric", "auroc", "--out", tmp_path / "x",
        ])
        assert code == 1

    def test_het_bins_skip_model_missing_on_ood(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-points", 200, "--classes", 4, "--models", 6, "--seed", 1, "--out", sim]) == 0
        path = sim / "manifest.json"
        manifest = json.loads(path.read_text())
        del next(m for m in manifest["models"] if m["id"] == "m005")["files"]["ood"]
        path.write_text(json.dumps(manifest))
        for seed in range(1, 9):
            out = tmp_path / f"tr{seed}"
            assert run(["trends", "--manifest", path, "--het-bins", 1, "--seed", seed, "--out", out]) == 0
            ensembles = json.loads((out / "result.json").read_text())["ensembles"]
            assert ensembles and not any("m005" in members for members in ensembles)

    def test_het_bins_match_listed_ensemble_by_member_set(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-points", 200, "--classes", 4, "--models", 5, "--seed", 1, "--out", sim]) == 0
        path = sim / "manifest.json"
        base = ["trends", "--manifest", path, "--metric", "brier", "--het-bins", 1, "--seed", 3]
        assert run([*base, "--ensembles", "none", "--out", tmp_path / "binned"]) == 0
        [binned] = json.loads((tmp_path / "binned" / "result.json").read_text())["ensembles"]
        listed = [binned[::-1], ["m000", "m001"]]
        (tmp_path / "ens.json").write_text(json.dumps(listed))
        out = tmp_path / "tr"
        assert run([*base, "--ensembles", tmp_path / "ens.json", "--out", out]) == 0
        assert json.loads((out / "result.json").read_text())["ensembles"] == listed
        header, rows = read_csv(out / "trend_points.csv")
        classes = {row[header.index("model_id")]: row[header.index("model_class")] for row in rows}
        assert classes["+".join(binned[::-1])] == "heterogeneous"
        assert classes["m000+m001"] == "ensemble"


class TestImproveCommand:
    def test_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "imp"
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "brier", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["metric"] == "brier"
        for ds in ("ind", "ood"):
            block = result["results"][ds]
            assert block["mmd"]["reject"] == (block["mmd"]["statistic"] > block["mmd"]["threshold"])
            assert "(" in block["mmd"]["formatted"]
            sums = block["mmd"]["kernel_sums"]
            assert sums["method"] == "pivoted_cholesky"
            assert 1 <= sums["rank_delta_a"] <= MMD_RANK_CAP and 1 <= sums["rank_delta_b_control"] <= MMD_RANK_CAP
            assert (out / f"improve_{ds}.csv").is_file()
            assert (out / f"improve_{ds}.svg").is_file()

    @pytest.mark.parametrize("flag,value", [
        pytest.param("--subsample", -1, id="-1"), pytest.param("--subsample", -5, id="-5"),
        pytest.param("--subsample", 1, id="1"),
        ("--alpha", 0), ("--alpha", 1.5), ("--seed", -1),
        # improve scores per point against labels: label-free and calibration metrics are refused.
        ("--metric", "entropy"), ("--metric", "quad_uncertainty"), ("--metric", "ece"), ("--metric", "bogus"),
    ])
    def test_bad_argument_names_flag(self, sim_dir, tmp_path, capsys, flag, value):
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m001", "--alt-b", "m002", "--control", "m003",
            flag, value, "--out", tmp_path / "x",
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: argument {flag}: ")
        assert not (tmp_path / "x").exists()

    def test_degenerate_zero_one_cloud_rejected(self, sim_dir, tmp_path, capsys):
        # On the 60 OOD points m000+m002 makes every 0-1 call m000 makes, so
        # delta_b is all zero and Pearson's r is undefined.
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "01", "--out", tmp_path / "x",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: correlation undefined: an input has zero variance\n"
        # The InD side succeeded, but nothing is written unless both sides do.
        assert not (tmp_path / "x").exists()
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "brier", "--out", tmp_path / "x",
        ])
        assert code == 0

    def test_coinciding_cloud_rejected(self, sim_dir, tmp_path, capsys):
        # On the 60 OOD points m000+m002 makes every 0-1 call m000 makes, and the
        # control is the base model: all deltas are zero and no bandwidth exists.
        code = run([
            "improve", "--manifest", sim_dir / "manifest.json", "--base", "m000", "--alt-a", "m000+m002",
            "--alt-b", "m000+m002", "--control", "m000", "--metric", "01", "--out", tmp_path / "x",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: bandwidth undefined: every point of the cloud coincides\n"

    @pytest.mark.parametrize("flag,alternatives", [
        ("--alt-a", ["--alt-a", "m001+m000", "--alt-b", "m002"]),
        ("--alt-b", ["--alt-a", "m002", "--alt-b", "m000+m001"]),
    ], ids=["alt-a", "alt-b"])
    def test_alternative_equal_to_base_names_flag(self, sim_dir, tmp_path, capsys, flag, alternatives):
        # The same members as --base, in any order, would score a delta of zero at every point.
        code = run(["improve", "--manifest", sim_dir / "manifest.json", "--base", "m000+m001", *alternatives,
                    "--control", "m003", "--out", tmp_path / "x"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} names the same members as --base\n"
        assert not (tmp_path / "x").exists()

    def test_one_point_dataset_is_one_error_line(self, tmp_path, capsys):
        # One OOD point makes each improvement cloud a single point: no statistic exists.
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-points", "50", "--n-ood", "1", "--models", "5", "--out", sim]) == 0
        capsys.readouterr()
        code = run(["improve", "--manifest", sim / "manifest.json", "--base", "m000", "--alt-a", "m001",
                    "--alt-b", "m002", "--control", "m003", "--out", tmp_path / "x"])
        assert code == 1
        assert capsys.readouterr().err == "error: the improvement test needs at least two points\n"
        assert not (tmp_path / "x").exists()

    def test_unequal_dataset_sizes(self, tmp_path):
        # 300 InD against 120 OOD points: each dataset is tested at its own size.
        rng = np.random.default_rng(5)
        sizes = {"ind": 300, "ood": 120}
        datasets = [(ds, rng.integers(0, 4, n), [(f"m{k:03d}", rng.normal(size=(n, 4))) for k in range(4)])
                    for ds, n in sizes.items()]
        manifest = write_store(tmp_path / "store", 4, datasets, [("ind", "ood")])
        out = tmp_path / "imp"
        code = run([
            "improve", "--manifest", manifest, "--base", "m000", "--alt-a", "m000+m001",
            "--alt-b", "m000+m002", "--control", "m003", "--metric", "nll", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        for ds, n in sizes.items():
            block = result["results"][ds]
            mmd = block["mmd"]
            assert block["n"] == mmd["m"] == n
            assert mmd["threshold"] == 4.0 / np.sqrt(n) * np.sqrt(np.log(1.0 / mmd["alpha"]))
            assert mmd["reject"] == (mmd["statistic"] > mmd["threshold"])
            assert len(read_csv(out / f"improve_{ds}.csv")[1]) == n

    def test_zero_one_metric_on_300_points(self, tmp_path):
        # Most 0-1 delta pairs coincide; the bandwidth is the median over the distinct pairs.
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-points", "300", "--models", "4", "--seed", "7", "--out", sim]) == 0
        out = tmp_path / "imp"
        code = run([
            "improve", "--manifest", sim / "manifest.json",
            "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002",
            "--control", "m003", "--metric", "01", "--out", out,
        ])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["settings"]["bandwidth_rule"] == "median_heuristic"
        assert [result["results"][ds]["mmd"]["bandwidth"] for ds in ("ind", "ood")] == [1.0, 1.0]


def _whole_matrix_scores(members, specs, labels, metric):
    # The path the row-blocked walk replaced: every ensemble formed whole, then scored.
    whole = {k: read_rows(m, 0, m.shape[0]) for k, m in members.items()}
    return [compute_metric(metric, form_ensemble([whole[k] for k in spec]), labels) for spec in specs]


WIDE_C = 1000
# Several row blocks per dataset for any member count up to 4.
WIDE_SIZES = {"ind": 3 * (BLOCK_ELEMENTS // WIDE_C) + 50, "ood": 3 * (BLOCK_ELEMENTS // WIDE_C) + 1}


@pytest.fixture(scope="module")
def wide_manifest(tmp_path_factory):
    """Four logit models on two datasets of 1,000 classes."""
    rng = np.random.default_rng(11)
    datasets = []
    for ds, n in WIDE_SIZES.items():
        labels = rng.integers(0, WIDE_C, n)
        members = []
        for k in range(4):
            # Each model puts a high logit on the true class of about half the points.
            logits = 2.0 * rng.standard_normal((n, WIDE_C))
            logits[np.arange(n), labels] += 8.0 * rng.random(n)
            members.append((f"m{k:03d}", logits))
        datasets.append((ds, labels, members))
    return write_store(tmp_path_factory.mktemp("wide"), WIDE_C, datasets, [("ind", "ood")])


class TestImproveRowBlocks:
    """`improve` scores its four ensembles one row block at a time."""

    SPECS = ["--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002", "--control", "m003"]

    def _run(self, manifest, out, metric, *extra):
        assert run(["improve", "--manifest", manifest, *self.SPECS, "--metric", metric, *extra, "--out", out]) == 0
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}

    @pytest.mark.parametrize("metric", ["brier", "nll", "01"])
    def test_outputs_equal_whole_matrix_path(self, wide_manifest, tmp_path, monkeypatch, metric):
        blocked = self._run(wide_manifest, tmp_path / "blocked", metric)
        monkeypatch.setattr(ensdiag.improvement, "ensemble_scores", _whole_matrix_scores)
        whole = self._run(wide_manifest, tmp_path / "whole", metric)
        assert sorted(blocked) == ["improve_ind.csv", "improve_ind.svg", "improve_ood.csv", "improve_ood.svg",
                                   "result.json"]
        assert blocked == whole

    def test_peak_memory_flat_in_point_count(self, tmp_path):
        # At 200 classes both sizes span several row blocks. --subsample fixes the
        # MMD sample and the CSV rows, so only the O(N) score columns may grow.
        c, peaks = 200, {}
        for n in (2000, 8000):
            rng = np.random.default_rng(n)
            members = [(f"m{k:03d}", rng.standard_normal((n, c))) for k in range(4)]
            manifest = write_store(tmp_path / str(n), c, [("ind", rng.integers(0, c, n), members),
                                                          ("ood", rng.integers(0, c, 50),
                                                           [(m, v[:50]) for m, v in members])], [("ind", "ood")])
            del members
            tracemalloc.start()
            try:
                self._run(manifest, tmp_path / f"imp{n}", "brier", "--subsample", "1000")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Held whole, four (N, C) float64 ensembles would add 4 * 6000 * 200 * 8 bytes.
        assert peaks[8000] - peaks[2000] < 6000 * 200
        assert peaks[8000] < 1.2 * peaks[2000]


# Per command: its arguments, the models it reads on each dataset, and the spare
# slots of its walk blocks: decompose's five work arrays, trends' four
# leave-one-out ensembles and their sum, improve's one ensemble.
READING_COMMANDS = {
    "decompose": (["decompose"], ["m000", "m001", "m002", "m003"], 5),
    "conditional": (["conditional", "--members", "m000+m002", "--surrogates", "1", "--subsample", "50"],
                    ["m000", "m002"], 5),
    "trends": (["trends", "--metric", "01,nll,brier,ece,resce"], ["m000", "m001", "m002", "m003"], 5),
    "improve": (["improve", *TestImproveRowBlocks.SPECS[:6], "--control", "m000"], ["m000", "m001", "m002"], 1),
}


def _counted_reads(monkeypatch) -> list:
    """Record ``(member name, lo, hi)`` of every file read of member values from now on."""
    reads = []
    read = StoredMember.read

    def counted(member, rows):
        reads.append((member.name, rows.start, rows.stop))
        return read(member, rows)

    monkeypatch.setattr(StoredMember, "read", counted)
    return reads


@pytest.mark.parametrize("command", list(READING_COMMANDS))
def test_one_read_per_member_per_row_block(wide_manifest, tmp_path, monkeypatch, command):
    # Over the whole run, load included, every member the command uses is read once
    # per block of row_blocks(n, C * max(M, spare)), M the members read, and no other
    # member is read.
    argv, models, spare = READING_COMMANDS[command]
    reads = _counted_reads(monkeypatch)
    assert run([*argv, "--manifest", wide_manifest, "--out", tmp_path / "out"]) == 0
    expected = [(f"{m}/{ds}", rows.start, rows.stop) for ds, n in WIDE_SIZES.items()
                for rows in row_blocks(n, WIDE_C * max(len(models), spare)) for m in models]
    assert len(expected) > 2 * 3 * len(models)
    assert sorted(reads) == sorted(expected)


class TestZooOfSixteen:
    """A command reads only its own members of a larger zoo, so values elsewhere are never read."""

    N, C = 40, 5
    ARGV = ["improve", "--base", "m003", "--alt-a", "m007", "--alt-b", "m003+m011", "--control", "m014"]

    @pytest.fixture
    def zoo(self, tmp_path):
        rng = np.random.default_rng(16)
        datasets = [(ds, rng.integers(0, self.C, self.N),
                     [(f"m{k:03d}", rng.standard_normal((self.N, self.C))) for k in range(16)])
                    for ds in ("ind", "ood")]
        return write_store(tmp_path / "zoo", self.C, datasets, [("ind", "ood")])

    def test_improve_reads_only_its_distinct_members(self, zoo, tmp_path, monkeypatch):
        reads = _counted_reads(monkeypatch)
        assert run([*self.ARGV, "--manifest", zoo, "--out", tmp_path / "out"]) == 0
        models = ["m003", "m007", "m011", "m014"]
        assert sorted(reads) == sorted((f"{m}/{ds}", 0, self.N) for ds in ("ind", "ood") for m in models)

    def test_bad_value_in_an_unused_member_is_never_read(self, zoo, tmp_path, capsys):
        values = np.fromfile(zoo.parent / "m009__ind.f32", dtype="<f4")
        values[7] = np.nan
        values.tofile(zoo.parent / "m009__ind.f32")
        assert run([*self.ARGV, "--manifest", zoo, "--out", tmp_path / "out"]) == 0
        assert run(["decompose", "--manifest", zoo, "--out", tmp_path / "x"]) == 1
        _one_error_line(capsys, "m009/ind: non-finite value in row 1")
        assert not (tmp_path / "x").exists()


class TestGpDemoCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "gp"
        assert run(["gp-demo", "--seed", "0", "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["summary"]["ood_exceeds_ind_in_all_populated_bins"] is True
        settings = result["settings"]
        assert (settings["n_train"], settings["lengthscale"], settings["signal_variance"]) == (25, 1.0, 1.0)
        assert "jitter" not in settings
        header, rows = read_csv(out / "gp_bins.csv")
        assert header == ["split", "bin_lo", "bin_hi", "count", "mean_posterior_variance"]
        assert len(rows) == 40
        header, rows = read_csv(out / "gp_predictions.csv")
        assert len(rows) == 512
        splits = {row[-1] for row in rows}
        assert splits == {"ind", "ood"}

    def test_failed_factorization_is_one_numerical_error_line(self, tmp_path, capsys, monkeypatch):
        # The prior draw's factorization succeeds and the fit's fails.
        cholesky, calls = np.linalg.cholesky, []

        def failing(matrix):
            calls.append(matrix.shape)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert run(["gp-demo", "--out", tmp_path / "gp"]) == 2
        assert calls == [(25, 25), (25, 25)]
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: "), lines


class TestReportCommand:
    def test_indexes_results(self, sim_dir, tmp_path):
        root = tmp_path / "runs"
        assert run(BASE_SIM + ["--out", root / "sim"]) == 0
        assert run(["gp-demo", "--out", root / "gp"]) == 0
        assert run(["report", "--out", root]) == 0
        index = json.loads((root / "index.json").read_text())
        assert index["n_runs"] == 2
        paths = {r["path"] for r in index["runs"]}
        assert paths == {"sim/result.json", "gp/result.json"}
        assert run(["report", "--out", root]) == 1
        assert run(["report", "--out", root, "--force"]) == 0


def assert_reruns_identical(argv, tmp_path):
    """Run a command twice into fresh directories; every file, SVG included, must match."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", out_a]) == 0
    assert run(argv + ["--out", out_b]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert any(name.endswith(".svg") for name in names)
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestDeterminism:
    def test_conditional_rerun_byte_identical(self, sim_dir, tmp_path):
        assert_reruns_identical(["conditional", "--manifest", sim_dir / "manifest.json",
                                 "--surrogates", "11", "--seed", "9"], tmp_path)

    def test_trends_rerun_byte_identical(self, sim_dir, tmp_path):
        assert_reruns_identical(["trends", "--manifest", sim_dir / "manifest.json",
                                 "--metric", "brier,resce"], tmp_path)

    def test_improve_rerun_byte_identical(self, sim_dir, tmp_path):
        assert_reruns_identical(["improve", "--manifest", sim_dir / "manifest.json", "--base", "m000",
                                 "--alt-a", "m000+m001", "--alt-b", "m000+m002", "--control", "m003"],
                                tmp_path)

    def test_gp_demo_rerun_byte_identical(self, tmp_path):
        assert_reruns_identical(["gp-demo"], tmp_path)

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # Every command runs in a child whose environment alone sets the OpenBLAS
        # thread count. OpenBLAS splits a long dot product across threads, so a
        # sum taken by BLAS reads differently in its last digits under 1 and 2.
        root = tmp_path / "run"  # result.json records its paths, so both runs write here

        def hashes(threads):
            shutil.rmtree(root, ignore_errors=True)
            manifest = root / "sim" / "manifest.json"
            env = {**os.environ, "PYTHONPATH": str(Path(ensdiag.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": str(threads)}
            for argv in (
                ["simulate", "--n-points", 3000, "--n-ood", 600, "--classes", 100, "--models", 5, "--seed", 1,
                 "--out", root / "sim"],
                ["trends", "--manifest", manifest, "--metric", "01,nll,brier,ece,resce", "--out", root / "trends"],
                ["decompose", "--manifest", manifest, "--out", root / "decompose"],
                ["improve", "--manifest", manifest, "--base", "m000", "--alt-a", "m000+m001",
                 "--alt-b", "m000+m002", "--control", "m003", "--out", root / "improve"],
                # At seed 0 the InD subsample's kernel ridge curve goes negative: see
                # TestConditionalCommand::test_subsample_where_kernel_ridge_goes_negative.
                ["conditional", "--manifest", manifest, "--subsample", 400, "--surrogates", 5, "--seed", 1,
                 "--out", root / "cond"],
                ["gp-demo", "--out", root / "gp"],
            ):
                subprocess.run([sys.executable, "-m", "ensdiag", *map(str, argv)], env=env, check=True,
                               capture_output=True)
            return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(root.rglob("*")) if p.suffix in (".csv", ".json")}

        one = hashes(1)
        assert "trends/trend_points.csv" in one and one == hashes(2)


def _recorded_keys(monkeypatch) -> list:
    """Record the key of every numpy.random.default_rng call from now on, as a tuple
    with its trailing zeros dropped: NumPy's SeedSequence pads a key with zeros, so
    two keys that are equal this way give one stream."""
    keys = []
    default_rng = np.random.default_rng

    def recorded(seed):
        key = np.atleast_1d(seed).tolist()
        while key and key[-1] == 0:
            key.pop()
        keys.append(tuple(key))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    return keys


class TestRandomStreams:
    """No run draws one random stream for two uses."""

    # Each run subsamples both datasets and conditional permutes 102 times, so surrogates
    # 100 and 101 would replay the subsamples if the streams shared one key space.
    # conditional's figure draws nothing. The store is one on which conditional's
    # curves stay positive (ROADMAP item 3), so every run ends in exit 0.
    RUNS = {
        "conditional": (["conditional", "--subsample", 40, "--surrogates", 102], 2 + 102),
        "improve": (["improve", "--subsample", 40, "--base", "m000", "--alt-a", "m000+m001",
                     "--alt-b", "m000+m002", "--control", "m003"], 2),
    }

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("streams") / "sim"
        assert run(["simulate", "--n-points", 60, "--classes", 3, "--models", 4, "--seed", 2, "--out", out]) == 0
        return out / "manifest.json"

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("command", list(RUNS))
    def test_no_run_draws_one_stream_twice(self, manifest, tmp_path, monkeypatch, command, seed):
        argv, draws = self.RUNS[command]
        keys = _recorded_keys(monkeypatch)
        assert run([*argv, "--manifest", manifest, "--seed", seed, "--out", tmp_path / "out"]) == 0
        assert len(keys) == draws
        assert len(set(keys)) == len(keys), sorted(k for k in set(keys) if keys.count(k) > 1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_stream_keys_pad_with_zeros(self, seed):
        # ensdiag.stream's key table relies on this: (seed) is the stream of the seed
        # alone, and (seed, k) that of [seed, k, 0], so no subsample key equals it.
        def state(rng):
            return rng.bit_generator.state

        assert state(ensdiag.stream(seed)) == state(np.random.default_rng(seed))
        assert state(ensdiag.stream(seed, 5)) == state(np.random.default_rng([seed, 5]))
        assert state(ensdiag.stream(seed, 5)) == state(np.random.default_rng([seed, 5, 0]))
        assert state(ensdiag.stream(seed, 0, ensdiag.SUBSAMPLE)) != state(ensdiag.stream(seed, 0))


def _outputs(out: Path) -> dict:
    """{file name: bytes} of the CSV and JSON files of an output directory."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


def _cells(name: str, data: bytes) -> list:
    """The CSV cells, or the JSON leaves, of one output file, in order."""
    if name.endswith(".csv"):
        return [cell for line in data.decode().splitlines() for cell in line.split(",")]

    def leaves(obj):
        if isinstance(obj, dict):
            return [x for key, value in obj.items() for x in [key, *leaves(value)]]
        if isinstance(obj, list):
            return [x for value in obj for x in leaves(value)]
        return [obj]

    return leaves(json.loads(data))


def _assert_cells_close(want: dict, got: dict, tol: float) -> None:
    """The same files, cells and text; numbers within `tol` times the larger of 1
    and their magnitudes."""
    assert want.keys() == got.keys()
    for name in want:
        a, b = _cells(name, want[name]), _cells(name, got[name])
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError):
                assert x == y, name
                continue
            if x == y or (np.isnan(x) and np.isnan(y)):  # the same infinity, or NaN in both
                continue
            assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), (name, x, y)


class TestMetamorphicRelations:
    """A transformed run gives the correspondingly transformed outputs, end to end."""

    # Each command's members and spare slots give rows of BLOCK_ELEMENTS // (C * 5)
    # but improve's // (C * 4): at 4 classes, 740 entries leave a short last block
    # of every dataset in every command.
    SHORT_LAST = 740
    COMMANDS = {
        "decompose": ["decompose"],
        "conditional": ["conditional", "--subsample", 100, "--surrogates", 3, "--seed", 1],
        "improve": ["improve", "--base", "m000", "--alt-a", "m000+m001", "--alt-b", "m000+m002", "--control", "m003"],
        "trends": ["trends", "--metric", "01,nll,brier,ece,resce"],
    }

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("relations") / "sim"
        assert run(["simulate", "--n-points", 300, "--n-ood", 120, "--classes", 4, "--models", 4, "--seed", 3,
                    "--out", out]) == 0
        return out / "manifest.json"

    @pytest.mark.parametrize("block_elements", [1, SHORT_LAST], ids=["one-row", "short-last"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_block_size_moves_no_output(self, manifest, tmp_path, command, block_elements):
        argv = [*self.COMMANDS[command], "--manifest", manifest, "--out", tmp_path / "out"]
        assert run(argv) == 0
        default = _outputs(tmp_path / "out")
        shutil.rmtree(tmp_path / "out")
        with mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS", block_elements):
            assert run(argv) == 0
        blocked = _outputs(tmp_path / "out")
        assert any(name.endswith(".csv") for name in default)
        if command == "trends":
            # Score sums are added block by block, so their rounding follows the blocks.
            points = [list(csv.DictReader(io.StringIO(out["trend_points.csv"].decode()))) for out in (default, blocked)]
            for want, got in zip(*points):
                for key in ("ind_value", "ood_value"):
                    assert float(got[key]) == pytest.approx(float(want[key]), rel=1e-12, abs=0)
            # Fits to 8 points, and residuals about them, amplify that rounding.
            _assert_cells_close(default, blocked, tol=1e-9)
        else:
            # Every other output is per point, or reduced from per-point columns.
            assert blocked == default

    @given(seed=st.integers(0, 2**32 - 1), n_ind=st.integers(1, 30), n_ood=st.integers(1, 30),
           c=st.integers(2, 6), m=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_reversed_pair_writes_the_same_csvs(self, seed, n_ind, n_ood, c, m):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            datasets = [(ds, rng.integers(0, c, n), [(f"m{k:03d}", 3.0 * rng.standard_normal((n, c)))
                                                     for k in range(m)])
                        for ds, n in (("ind", n_ind), ("ood", n_ood))]
            manifest = write_store(Path(tmp) / "store", c, datasets, [("ind", "ood")])
            csvs = []
            for pair in ("ind:ood", "ood:ind"):
                out = Path(tmp) / pair.replace(":", "-")
                assert run(["decompose", "--manifest", manifest, "--pair", pair, "--out", out]) == 0
                csvs.append({name: data for name, data in _outputs(out).items() if name.endswith(".csv")})
        assert len(csvs[0]) == 8 and csvs[0] == csvs[1]

    @staticmethod
    def _drawn_store(seed, sizes, c):
        """Labels and float32 logits of four models on an InD/OOD pair, as write_store
        takes them, and whether every row of every member has one largest logit."""
        rng = np.random.default_rng(seed)
        datasets, untied = [], True
        for ds, n in zip(("ind", "ood"), sizes):
            members = [(f"m{k:03d}", (3.0 * rng.standard_normal((n, c))).astype(np.float32)) for k in range(4)]
            top = np.sort(np.stack([x for _, x in members]), axis=2)[..., -2:]
            untied &= bool(np.all(top[..., 1] > top[..., 0]))
            datasets.append((ds, rng.integers(0, c, n), members))
        return datasets, untied

    def _run_transformed(self, datasets, c, transform, commands):
        """{command: outputs} of each command on the drawn store and then on the
        store that `transform` makes of each (labels, logits), written at the same
        path so that result.json records the same manifest. A command may fail
        (a trend fit of tied scores), but then it fails alike on both stores, and
        its outputs are left out."""
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for step in (lambda labels, logits: (labels, logits), transform):
                store = Path(tmp) / "store"
                shutil.rmtree(store, ignore_errors=True)
                manifest = write_store(store, c, [
                    (ds, step(labels, members[0][1])[0], [(mid, step(labels, x)[1]) for mid, x in members])
                    for ds, labels, members in datasets], [("ind", "ood")])
                outputs = {}
                for command in commands:
                    out = Path(tmp) / command
                    shutil.rmtree(out, ignore_errors=True)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = run([*self.COMMANDS[command], "--manifest", manifest, "--out", out])
                    outputs[command] = _outputs(out) if code == 0 else (code, err.getvalue())
                runs.append(outputs)
        for command in commands:
            if isinstance(runs[0][command], tuple):
                assert runs[0][command] == runs[1][command]
                del runs[0][command], runs[1][command]
        return runs

    @given(seed=st.integers(0, 2**32 - 1), n_ind=st.integers(10, 40), n_ood=st.integers(10, 40), c=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_permuted_rows_permute_the_per_point_rows(self, seed, n_ind, n_ood, c):
        # Every member's rows and the labels, by one permutation per dataset size.
        datasets, untied = self._drawn_store(seed, (n_ind, n_ood), c)
        assume(untied)
        rng = np.random.default_rng(seed)
        perms = {n: rng.permutation(n) for n in (n_ind, n_ood)}
        plain, permuted = self._run_transformed(
            datasets, c, lambda labels, x: (labels[perms[labels.size]], x[perms[labels.size]]),
            ["decompose", "trends"])
        for name, data in plain["decompose"].items():
            if name.endswith(".csv"):
                header, *rows = [line.split(",") for line in data.decode().splitlines()]
                got_header, *got = [line.split(",") for line in permuted["decompose"][name].decode().splitlines()]
                # The index column counts rows; every other cell moves with its point, bit for bit.
                assert got_header == header and [r[1:] for r in got] == [rows[i][1:] for i in perms[len(rows)]]
        points = [list(csv.DictReader(io.StringIO(out["trends"]["trend_points.csv"].decode())))
                  for out in (plain, permuted) if "trends" in out]
        for want, got in zip(*points):
            for key in ("ind_value", "ood_value"):
                assert float(got[key]) == pytest.approx(float(want[key]), rel=1e-12, abs=0)

    def _assert_relabelling_moves_no_output(self, command, seed, datasets, c):
        # The columns of every member and the labels, by one permutation of the classes.
        perm = np.random.default_rng(seed).permutation(c)
        plain, relabelled = self._run_transformed(
            datasets, c, lambda labels, x: (np.argsort(perm)[labels], x[:, perm]), [command])
        assert plain.keys() == relabelled.keys()
        if plain:
            _assert_cells_close(plain[command], relabelled[command], tol=1e-12)

    @pytest.mark.parametrize("command", ["decompose", "trends", "improve"])
    @given(seed=st.integers(0, 2**32 - 1), n_ind=st.integers(10, 40), n_ood=st.integers(10, 40), c=st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_relabelled_classes_move_no_output(self, command, seed, n_ind, n_ood, c):
        datasets, untied = self._drawn_store(seed, (n_ind, n_ood), c)
        assume(untied)
        self._assert_relabelling_moves_no_output(command, seed, datasets, c)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="relabelling moves each point's diversity in its last bits, and the kernel ridge "
                              "fits amplify that: a surrogate d moves by 1.3e-12")
    def test_relabelled_classes_move_no_conditional_output(self):
        datasets, untied = self._drawn_store(0, (10, 10), 3)
        assert untied
        self._assert_relabelling_moves_no_output("conditional", 0, datasets, 3)


class TestProbabilitiesAgreeWithLogits:
    """A probs store holding the float32 softmax of a logits store, with the same
    labels, gives the logits run's aggregates to within float32 rounding."""

    # The probs store holds each probability p of a logit row rounded to float32,
    # p(1 + e) with |e| <= 2**-24, and a read divides its row by the rounded row's
    # sum, within 2**-24 of 1. So each probability read is p(1 + d) with
    # |d| <= DELTA, which leaves room for float64 rounding.
    DELTA = 3 * 2.0**-24
    # What that moves a per-point score, and so a mean of them, at C <= 6: a Brier
    # or quadratic score by 2 DELTA + DELTA^2, an NLL by -ln(1 - DELTA), a
    # confidence (so ECE and ResCE) by DELTA, an entropy by DELTA (1 + ln C + 2 DELTA)
    # and a difference of two (JSD, KL gap) by twice that, and the variance
    # diversity by 8 DELTA + 4 DELTA^2, the largest.
    SCORE_TOL = 9 * DELTA
    # Each per-point improvement is a difference of two Brier scores.
    DELTA_TOL = 2 * (2 * DELTA + DELTA**2)
    N_BINS = 15  # trends' default calibration bins

    @classmethod
    def _rounding_moves_no_bin(cls, stacks) -> bool:
        """Whether no argmax and no calibration bin of a single or leave-one-out
        ensemble that trends scores can move when each probability moves by a
        factor within 1 +/- DELTA. `stacks` holds each dataset's (M, N, C) stack."""
        edges = np.arange(1, cls.N_BINS) / cls.N_BINS
        for stack in stacks:
            for q in [*stack, *((stack.sum(axis=0) - p) / (len(stack) - 1) for p in stack)]:
                second, top = np.sort(q, axis=1)[:, -2:].T
                if np.any(second * (1 + 4 * cls.DELTA) >= top):
                    return False
                if np.any(np.abs(top[:, None] - edges) <= 2 * cls.DELTA * top[:, None]):
                    return False
        return True

    @staticmethod
    def _assert_within(want: list, got: list, tol: float, what: str) -> None:
        """The same cells and text; numbers within `tol` of each other."""
        assert len(want) == len(got), what
        for x, y in zip(want, got):
            try:
                x, y = float(x), float(y)
            except (TypeError, ValueError):
                assert x == y, what
                continue
            assert abs(x - y) <= tol, (what, x, y)

    def _assert_improve_within(self, want: dict, got: dict) -> None:
        """Per-point improvements within DELTA_TOL, and the Pearson r, bandwidth and
        MMD statistic within what those moves allow."""
        eta = self.DELTA_TOL
        for ds in ("ind", "ood"):
            name = f"improve_{ds}.csv"
            self._assert_within(_cells(name, want[name]), _cells(name, got[name]), eta, name)
            header, *body = want[name].decode().splitlines()
            columns = dict(zip(header.split(","), np.array([r.split(",") for r in body], float).T))
            a, b = (json.loads(out["result.json"])["results"][ds] for out in (want, got))
            assert a["n"] == b["n"] == len(body)
            # r is the inner product of the centred, normalised columns, and
            # normalising u moves it by at most 2 |du| / |u|, with |du| <= eta sqrt(n).
            r_tol = sum(2 * eta * np.sqrt(len(body)) / np.linalg.norm(col - col.mean())
                        for col in (columns["delta_a"], columns["delta_b"]))
            assert abs(a["pearson_r"] - b["pearson_r"]) <= r_tol, ds
            # Each 2-d point moves by at most eta sqrt(2), so each distance, and the
            # bandwidth, their median, by at most twice that.
            ma, mb = a["mmd"], b["mmd"]
            d_tol, h_move = 2 * np.sqrt(2) * eta, abs(ma["bandwidth"] - mb["bandwidth"])
            assert h_move <= d_tol, ds
            # A kernel value exp(-d^2 / 2h^2) moves by at most 1/(h sqrt e) per unit of
            # d and 2/(e h) per unit of h. The statistic is a signed mean of kernel
            # values with weights of total size 4, and each factor's stop at
            # PIVOT_TOL per point moves it by at most 10 PIVOT_TOL.
            h = min(ma["bandwidth"], mb["bandwidth"])
            stat_tol = 4 * (d_tol / (h * np.sqrt(np.e)) + 2 * h_move / (np.e * h)) + 20 * PIVOT_TOL
            assert abs(ma["statistic"] - mb["statistic"]) <= stat_tol, ds
            assert (ma["m"], ma["threshold"], ma["alpha"]) == (mb["m"], mb["threshold"], mb["alpha"])
            if abs(ma["statistic"] - ma["threshold"]) > stat_tol:
                assert ma["reject"] == mb["reject"], ds

    @given(seed=st.integers(0, 2**32 - 1), n_ind=st.integers(10, 40), n_ood=st.integers(10, 40), c=st.integers(2, 6))
    @settings(max_examples=8, deadline=None)
    def test_probabilities_agree_with_their_logits(self, seed, n_ind, n_ood, c):
        datasets, _ = TestMetamorphicRelations._drawn_store(seed, (n_ind, n_ood), c)
        # The probabilities a logits read gives, bit for bit.
        probs = {ds: (labels, {mid: softmax(x.astype(np.float64)) for mid, x in members})
                 for ds, labels, members in datasets}
        assume(self._rounding_moves_no_bin([np.stack(list(ms.values())) for _, ms in probs.values()]))
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            # Both stores are written at one path, so result.json records one manifest.
            store = Path(tmp) / "store"
            for write in (lambda: write_store(store, c, datasets, [("ind", "ood")]),
                          lambda: write_kind_store(store, "probs", probs, [("ind", "ood")])):
                shutil.rmtree(store, ignore_errors=True)
                manifest = write()
                outputs = {}
                for command in ("decompose", "trends", "improve"):
                    out = Path(tmp) / command
                    shutil.rmtree(out, ignore_errors=True)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = run([*TestMetamorphicRelations.COMMANDS[command], "--manifest", manifest, "--out", out])
                    outputs[command] = _outputs(out) if code == 0 else (code, err.getvalue())
                runs.append(outputs)

        logits, probs = runs
        for name in logits["decompose"]:
            self._assert_within(_cells(name, logits["decompose"][name]), _cells(name, probs["decompose"][name]),
                                self.SCORE_TOL, name)
        if isinstance(logits["trends"], tuple):  # a trend fit of tied 0-1 scores fails alike on both
            assert logits["trends"] == probs["trends"]
        else:
            # The mean scores. The fits over 8 points, and the effective robustness and
            # diversity ratio taken from them, are functions of these.
            points = [[cell for line in out["trends"]["trend_points.csv"].decode().splitlines()
                       for cell in line.split(",")[:5]] for out in runs]
            self._assert_within(*points, self.SCORE_TOL, "trend_points.csv")
        self._assert_improve_within(logits["improve"], probs["improve"])


class TestUnequalSizesEndToEnd:
    """300 InD against 120 OOD points, as the paper's pairs differ in size."""

    @pytest.fixture
    def sim_unequal(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--n-points", 300, "--n-ood", 120, "--classes", 4, "--models", 4,
                    "--seed", 3, "--out", out]) == 0
        return out

    def test_simulate_records_both_sizes(self, sim_unequal):
        manifest = json.loads((sim_unequal / "manifest.json").read_text())
        assert {d["id"]: d["n"] for d in manifest["datasets"]} == {"ind": 300, "ood": 120}
        spec = json.loads((sim_unequal / "result.json").read_text())["spec"]
        assert (spec["n_points"], spec["n_ood"]) == (300, 120)

    def test_decompose(self, sim_unequal, tmp_path):
        out = tmp_path / "dec"
        assert run(["decompose", "--manifest", sim_unequal / "manifest.json", "--out", out]) == 0
        aggregates = json.loads((out / "result.json").read_text())["aggregates"]
        for ds, n in (("ind", 300), ("ood", 120)):
            for family in ("quadratic", "entropy", "brier_gap", "nll_gap"):
                assert aggregates[ds][family]["n"] == n
                assert aggregates[ds][family]["max_abs_residual"] < 1e-10
                assert len(read_csv(out / f"decompose_{family}_{ds}.csv")[1]) == n

    def test_conditional(self, sim_unequal, tmp_path):
        out = tmp_path / "cond"
        assert run(["conditional", "--manifest", sim_unequal / "manifest.json", "--surrogates", 9,
                    "--seed", 2, "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["d_surrogates"]) == 9 and np.isfinite(result["d_statistic"])
        assert len(read_csv(out / "curves.csv")[1]) == result["settings"]["grid_size"]

    def test_trends(self, sim_unequal, tmp_path):
        out = tmp_path / "tr"
        assert run(["trends", "--manifest", sim_unequal / "manifest.json", "--out", out]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["ensembles"]) == 4
        header, rows = read_csv(out / "trend_points.csv")
        assert len(rows) == 4 * (4 + 4)
        assert all(np.isfinite(float(r[header.index("ood_value")])) for r in rows)

    def test_absent_flag_writes_the_same_store(self, tmp_path):
        base = ["simulate", "--n-points", 50, "--classes", 3, "--models", 2, "--seed", 4]
        assert run(base + ["--out", tmp_path / "a"]) == 0
        assert run(base + ["--n-ood", 50, "--out", tmp_path / "b"]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def _one_error_line(capsys, *expected):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for text in expected:
        assert text in lines[0]


class TestFaultsInTheWalkBuffer:
    """A bad value read into the reused walk buffer, in a later block of a later
    member, ends the command with one error line naming the member and its row."""

    M, N, C, ROWS = 3, 40, 4, 6  # blocks of 6 rows across the 3 members, the last of 4
    # Spare slots of each command's walk blocks: decompose's work arrays, and
    # trends' three leave-one-out ensembles and their sum.
    SPARE = {"decompose": 5, "trends": 4}

    def _store(self, root, kind):
        rng = np.random.default_rng(5)
        draw = (lambda: rng.standard_normal((self.N, self.C))) if kind == "logits" else (
            lambda: rng.dirichlet(np.ones(self.C), self.N))
        datasets = {d: (rng.integers(0, self.C, self.N), {f"m{k}": draw() for k in range(self.M)})
                    for d in ("ind", "ood")}
        return write_kind_store(root, kind, datasets, [("ind", "ood")])

    @given(command=st.sampled_from(["decompose", "trends"]), dataset=st.sampled_from(["ind", "ood"]),
           member=st.integers(1, M - 1), block=st.integers(1, N // ROWS), offset=st.integers(0, ROWS - 1),
           fault=st.sampled_from(["nan", "inf", "-inf", "row sum", "range", "truncate"]),
           kind=st.sampled_from(["logits", "probs"]))
    @settings(max_examples=60, deadline=None)
    def test_one_error_line_names_member_and_row(self, command, dataset, member, block, offset, fault, kind):
        row = min(self.N - 1, block * self.ROWS + offset)
        kind = "probs" if fault in ("row sum", "range") else kind
        name = f"m{member}/{dataset}"
        with tempfile.TemporaryDirectory() as tmp:
            manifest = self._store(Path(tmp) / "store", kind)
            path = manifest.parent / f"m{member}__{dataset}.f32"
            values = np.fromfile(path, dtype="<f4").reshape(self.N, self.C)
            if fault == "row sum":
                values[row] *= np.float32(1.01)
                expected = f"{name}: row {row} sums to 1.0"
            elif fault == "range":
                values[row, offset % self.C] = 1.5
                expected = f"{name}: probabilities outside [0, 1]"
            elif fault != "truncate":
                values[row, offset % self.C] = float(fault)
                expected = f"{name}: non-finite value in row {row}"
            else:
                # The file holds `row` rows once loaded, so the block holding row `row` ends early.
                expected = f"{name}: file {path.name} ends before row {min(self.N, (row // self.ROWS + 1) * self.ROWS)} "
            values.tofile(path)

            def load_then_truncate(manifest_path):
                store = load_store(manifest_path)
                path.write_bytes(path.read_bytes()[:row * self.C * 4])
                return store

            out, err = Path(tmp) / "out", io.StringIO()
            with contextlib.ExitStack() as stack:
                stack.enter_context(mock.patch.object(ensdiag.store, "BLOCK_ELEMENTS",
                                                      self.ROWS * self.C * max(self.M, self.SPARE[command])))
                if fault == "truncate":
                    stack.enter_context(mock.patch.object(ensdiag.cli, "load_store", load_then_truncate))
                stack.enter_context(contextlib.redirect_stderr(err))
                code = run([command, "--manifest", manifest, "--out", out])
            assert code == 1
            assert "Traceback" not in err.getvalue()
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {expected}"), (lines, expected)
            assert not out.exists()


class TestMemberFileFaults:
    """Bad values deep in a member file, or a file changed after load, end in one error line."""

    C = 64
    N = 2 * (BLOCK_ELEMENTS // C) + 10  # three row blocks, the last one short

    def _store(self, tmp_path, kind="logits"):
        rng = np.random.default_rng(2)
        if kind == "logits":
            values = {d: [rng.standard_normal((self.N, self.C)) for _ in range(2)] for d in ("ind", "ood")}
        else:
            values = {d: [rng.dirichlet(np.ones(self.C), self.N) for _ in range(2)] for d in ("ind", "ood")}
        root = tmp_path / "store"
        manifest = write_store(root, self.C, [(d, rng.integers(0, self.C, self.N),
                                               [(f"m{k:03d}", v) for k, v in enumerate(vs)])
                                              for d, vs in values.items()], [("ind", "ood")])
        if kind == "probs":
            raw = json.loads(manifest.read_text())
            for entry in raw["datasets"]:
                entry["kind"] = "probs"
            manifest.write_text(json.dumps(raw))
        return manifest

    def _poke(self, path, row, col, value):
        values = np.fromfile(path, dtype="<f4").reshape(self.N, self.C)
        values[row, col] = value
        values.tofile(path)

    def test_non_finite_in_last_block_of_last_model(self, tmp_path, capsys):
        manifest = self._store(tmp_path)
        self._poke(manifest.parent / "m001__ood.f32", self.N - 2, self.C - 1, np.inf)
        assert run(["decompose", "--manifest", manifest, "--out", tmp_path / "x"]) == 1
        _one_error_line(capsys, f"m001/ood: non-finite value in row {self.N - 2}")
        assert not (tmp_path / "x").exists()

    def test_probs_row_sum_out_of_tolerance_in_late_block(self, tmp_path, capsys):
        manifest = self._store(tmp_path, kind="probs")
        path = manifest.parent / "m001__ind.f32"
        row = self.N - 5
        values = np.fromfile(path, dtype="<f4").reshape(self.N, self.C)
        values[row] *= np.float32(1.01)
        values.tofile(path)
        assert run(["trends", "--manifest", manifest, "--out", tmp_path / "x"]) == 1
        _one_error_line(capsys, f"m001/ind: row {row} sums to 1.0", "outside 1 +/- 1e-06")
        assert not (tmp_path / "x").exists()

    def test_size_error_comes_before_value_error(self, tmp_path, capsys):
        # Sizes are checked at load, values only when read: the short file is named.
        manifest = self._store(tmp_path)
        self._poke(manifest.parent / "m000__ind.f32", 0, 0, np.nan)
        short = manifest.parent / "m001__ood.f32"
        short.write_bytes(short.read_bytes()[:-4])
        assert run(["decompose", "--manifest", manifest, "--out", tmp_path / "x"]) == 1
        _one_error_line(capsys, "m001/ood: file m001__ood.f32 holds ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [["decompose"], ["trends"], ["conditional", "--surrogates", "2"],
                                         ["improve", "--base", "m000", "--alt-a", "m001", "--alt-b", "m000+m001",
                                          "--control", "m001"]])
    @pytest.mark.parametrize("change", ["truncate", "delete"])
    def test_file_changed_after_load(self, tmp_path, capsys, monkeypatch, command, change):
        manifest = self._store(tmp_path)
        member = manifest.parent / "m001__ood.f32"

        def load_then_change(path):
            store = load_store(path)
            if change == "truncate":
                member.write_bytes(member.read_bytes()[: self.C * 4 * 100])
            else:
                member.unlink()
            return store

        monkeypatch.setattr(ensdiag.cli, "load_store", load_then_change)
        assert run([command[0], "--manifest", manifest, *command[1:], "--out", tmp_path / "x"]) == 1
        expected = "ends before row" if change == "truncate" else "cannot read m001__ood.f32"
        _one_error_line(capsys, "m001/ood: ", expected)
