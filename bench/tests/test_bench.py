"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import ladder  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert ladder.generate(7) == ladder.generate(7)
    assert ladder.generate(7).files != ladder.generate(8).files


def test_generator_keeps_the_shape_of_every_input():
    for seed in range(5):
        for name, text in ladder.generate(seed).files.items():
            alphabet, rules, complement = ladder.POOL[name]
            lines = text.splitlines()
            assert len(lines[0].split()) == 1 + len(alphabet)
            assert sum(line.startswith("rule:") for line in lines) == len(rules)
            assert any(line.startswith("complement:") for line in lines) == (complement is not None)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structural_counts_are_identical_across_seeds(tmp_path, seed):
    import frs.cli

    runner = run.Runner(ROOT, tmp_path, ladder.generate(seed), perf_counter() + 60)
    runner.write_inputs()
    for job in ladder.CONSTRUCT_JOBS[:12] + ladder.VERIFY_SETUP[2:]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = frs.cli.main([runner._arg(arg) for arg in job.args])
        assert ladder.mismatches(job, ladder.facts(code, out.getvalue())) == [], job.name


def test_a_corrupted_expected_answer_fails_the_job(tmp_path):
    runner = run.Runner(ROOT, tmp_path, ladder.generate(3), perf_counter() + 60)
    runner.write_inputs()
    job = ladder.CONSTRUCT_JOBS[4]  # large-sub aaa
    assert runner.run(job).problems == []
    corrupted = dataclasses.replace(job, expect={**job.expect, "rules": job.expect["rules"] + 1})
    problems = runner.run(corrupted).problems
    assert problems and problems[0].startswith("rules: expected 3, got 2")
    wrong_exit = dataclasses.replace(job, expect={**job.expect, "exit": 3})
    assert runner.run(wrong_exit).problems


def _namespaces() -> dict[str, dict[str, object]]:
    import frs.cli  # noqa: F401  (loads every frs module)

    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "frs" or name.startswith("frs.")
    }


def test_recorder_patches_every_namespace_and_restores_it():
    import frs
    from frs import core, large_sub, property_r

    before = _namespaces()
    recorder = spans.Recorder()
    recorder.install()
    try:
        for module in (frs, core, large_sub, property_r):
            assert module.normal_form is not before[module.__name__]["normal_form"]
        alphabet = core.Alphabet(["a", "b"])
        system = core.RewritingSystem(alphabet, (core.Rule(alphabet.word("b a"), alphabet.word("a b")),))
        words = list(property_r.words_over(alphabet, 3))
        forms = [large_sub.normal_form(word, system) for word in words]
    finally:
        recorder.uninstall()
    assert _namespaces() == before
    dump = recorder.dump()
    assert dump["counts"][spans.WORDS] == len(words) == 14
    calls = {name: n for _, name, n, _, _ in dump["edges"]}
    assert calls["core.normal_form"] == len(forms)


def test_recorder_attributes_pool_threads_to_pmap(monkeypatch):
    from frs import core, parallel, property_r

    monkeypatch.setenv("FRS_THREADS", "2")
    alphabet = core.Alphabet(["a", "b"])
    system = core.RewritingSystem(alphabet, (core.Rule(alphabet.word("b a"), alphabet.word("a b")),))
    words = list(core.words_over(alphabet, 7))
    assert len(words) >= parallel._SERIAL_CUTOFF
    recorder = spans.Recorder()
    recorder.install()
    try:
        forms = property_r.pmap(lambda word: property_r.normal_form(word, system), words)
    finally:
        recorder.uninstall()
    assert len(forms) == len(words)
    edges = {(parent, name): (n, total, own) for parent, name, n, total, own in recorder.dump()["edges"]}
    assert edges[(spans.PMAP_ITEM, "core.normal_form")][0] == len(words)
    assert edges[(spans.PMAP, spans.PMAP_ITEM)][0] == len(words)
    calls, total, own = edges[(None, spans.PMAP)]
    assert calls == 1 and 0 <= own <= total


def test_reference_work_is_fixed_and_rescales_times():
    assert speed.reference_work() == speed.reference_work() == 63
    meter = speed.Speedometer()
    meter.sample()
    assert len(meter.walls) == len(meter.cpus) == 1
    # Samples twice as slow as the reference halve the times they rescale.
    meter.cpus = [1.5 * speed.REF_CPU_S, 2.5 * speed.REF_CPU_S]
    assert meter.factor() == pytest.approx(0.5)


def test_a_running_job_is_stopped_for_reference_samples():
    import subprocess

    meter = speed.Speedometer()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(2.5)"])
    status, _, timed_out, paused = run._reap(proc, 10.0, meter)
    assert os.waitstatus_to_exitcode(status) == 0 and not timed_out
    assert len(meter.walls) == 2 and paused >= sum(meter.walls)


def test_reported_layers_match_the_benchmark_definition():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [metric["name"] for metric in spec["per_layer"]] == run.reported_layers()
    assert sorted(workload["name"] for workload in spec["workloads"]) == sorted(ladder.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "construct", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert code != 0
    assert capsys.readouterr().out == ""
