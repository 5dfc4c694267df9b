"""Tests of the benchmark itself: corpus determinism, the reference
formula, the replay, and that a wrong reference fails the run.

    python3 -m pytest -q bench
"""

import filecmp
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import corpus
import references
import run
import tracing

CHEAP = ("surface-du.", "tail.")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The germ-session corpus for seed 1, set up as a benchmark run does."""
    workdir = str(tmp_path_factory.mktemp("germ-session"))
    cli, commands, _ = run.setup("germ-session", 1, workdir)
    return cli, [c for c in commands if c.id.startswith(CHEAP)], os.path.join(workdir, "reports")


def _reference(commands):
    """Expected outcomes; of the minors only their number, since the seed
    renames the variables they are spelled in."""
    return [(c.id, c.name, c.exit_code, c.oracle, c.degree_cap,
             len(c.result["minors"]) if c.name == "minors" else c.result) for c in commands]


def test_formula_reproduces_known_colengths():
    references.check_formula()
    assert [references.dense_colength(k) for k in (4, 5, 6, 8)] == [155, 381, 780, 2460]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_manifests(workload, tmp_path):
    a = corpus.generate(workload, 7, str(tmp_path / "a"))
    b = corpus.generate(workload, 7, str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert match == names and not mismatch and not errors
    assert _reference(a) == _reference(b)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_other_seed_changes_manifests_not_references(workload, tmp_path):
    a = corpus.generate(workload, 1, str(tmp_path / "a"))
    b = corpus.generate(workload, 2, str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert differ
    assert _reference(a) == _reference(b)


def test_cheap_commands_pass_through_cli(session):
    cli, commands, report_dir = session
    _, times, failures = run.run_pass(cli, commands, report_dir)
    assert failures == []
    assert len(times) == len(commands)


def test_traced_pass_matches_references(session, tmp_path):
    cli, commands, report_dir = session
    commands = commands + [c for c in corpus.generate("oracle-verify", 1, str(tmp_path))
                           if c.id.startswith("surface-du.")]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, _, failures = run.run_pass(cli, commands, report_dir, tracer)
    assert failures == []
    assert cli.colength.__module__ == "detindex.standard_bases"  # restored
    metrics = tracer.metrics()
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["truncation.stabilized_ratio"] == 1.0 and value["truncation.max_cap"] == 4
    assert value["rings.parse_calls"] > 0 and value["determinantal.minors_count"] > 0
    assert value["standard_bases.ideal_complete_s"] > 0 and value["conversions.s"] > 0
    layers = [v for name, (v, unit) in metrics.items() if unit == "s" and name != "cli.run_s"]
    assert sum(layers) == pytest.approx(value["cli.run_s"])


def test_wrong_reference_fails_the_run(session):
    cli, commands, report_dir = session
    wrong = [replace(c, result={"alg_index": 6}) if c.id == "surface-du.alg" else c for c in commands]
    _, _, failures = run.run_pass(cli, wrong, report_dir)
    assert len(failures) == 1 and failures[0].startswith("surface-du.alg")

    out = io.StringIO()
    with redirect_stdout(out):
        code = run.emit({"pass_s": (1.0, "s")}, len(wrong), failures)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert lines[0].startswith("fail_ratio %.4f" % (1 / len(wrong)))


def test_wrong_minors_reference_fails(session):
    cli, commands, report_dir = session
    minors = next(c for c in commands if c.name == "minors")
    wrong = replace(minors, result={"minors": ["x*z - y*u", "y*z - x*u", "-x^2 + y^2 + y*u"], "size": 2})
    _, _, failures = run.run_pass(cli, [minors, wrong], report_dir)
    assert len(failures) == 1 and "expected" in failures[0]
