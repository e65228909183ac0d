"""Smoke tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from gen import StreamSpec, generate
from spans import Span, Tracer, instrument, self_times
from workloads import (WORKLOADS, CheckFailed, _decompress_check, mismatch,
                       normalized_text, pac_odds)

run._import_program()

from semcomm.cli import main  # noqa: E402
from semcomm.fol import parse_evidence  # noqa: E402
from semcomm.inductive import pac_sample_bound  # noqa: E402
from semcomm.sublang import build_sublanguage  # noqa: E402

from layers import PROBES  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("spec", [
    StreamSpec(entities=50, kinds=7, facts=3, statements=400, predicates=6),
    StreamSpec(entities=64, kinds=64, facts=2, statements=128, predicates=8),
    StreamSpec(entities=5, kinds=1, facts=1, statements=5, predicates=1),
])
@pytest.mark.parametrize("seed", [0, 17])
def test_generator_is_seeded_and_exact(tmp_path, spec, seed):
    text = generate(spec, seed)
    assert generate(spec, seed) == text
    if spec.kinds > 1:
        assert generate(spec, seed + 1) != text
    path = tmp_path / "ev.fol"
    path.write_bytes(text)
    ev = parse_evidence(path)
    assert len(ev.statements) == spec.statements
    assert len(ev.distinct_statements) == spec.distinct
    assert len(ev.entities) == spec.entities
    assert build_sublanguage(ev).summary.c == spec.kinds
    assert normalized_text(text.decode()) == text


def test_generator_rejects_impossible_shapes():
    with pytest.raises(ValueError):
        generate(StreamSpec(entities=10, kinds=20, facts=1, statements=10,
                            predicates=4), 0)
    with pytest.raises(ValueError):
        generate(StreamSpec(entities=10, kinds=2, facts=2, statements=5,
                            predicates=4), 0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_untraced(name):
    record = run.run_workload(name, seed=3, seconds=0.0, trace=False,
                              tiny=True)
    result = record["result"]
    assert record["error_rate"] == 0, record["errors"]
    assert result["correct"] and result["attempted"] >= 6
    expected = {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(result["metrics"]) == expected
    for name_, metric in result["metrics"].items():
        assert metric["value"] > 0, name_


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_traced(name):
    record = run.run_workload(name, seed=3, seconds=0.0, trace=True,
                              tiny=True)
    assert record["error_rate"] == 0, record["errors"]
    assert record["missing_probes"] == []
    metrics = record["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    for key in ("coder.kernel_encode_s", "lossy.serial_sweep_s",
                "lossy.payoff_s", "inductive.converge_s", "cli.self_s"):
        assert metrics[key]["value"] > 0, key


def test_self_time_of_nested_spans(tmp_path):
    path = tmp_path / "ev.fol"
    path.write_bytes(generate(StreamSpec(entities=8, kinds=2, facts=2,
                                         statements=20, predicates=3), 5))
    tracer = Tracer()
    with instrument(tracer, PROBES) as missing:
        with tracer.span("cli.lossy"):
            main.main(args=["lossy", str(path), "--slack", "2",
                            "--out", str(tmp_path / "rd.csv")],
                      standalone_mode=False)
    assert missing == []
    spans, counts, _ = tracer.take()
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    sweep = next(s for s in spans if s.name == "lossy.rd_sweep")
    payoff = [s for s in spans if s.name == "lossy.payoff_matrix"
              and s.parent == sweep.id]
    assert len(payoff) == 1
    assert by_id[sweep.parent].name == "cli.lossy"
    assert own[sweep.id] == pytest.approx(
        (sweep.end - sweep.start) - (payoff[0].end - payoff[0].start),
        abs=1e-12)
    assert counts["lossy.payoff_matrix"] == 2   # content_cap and rd_sweep

    # one thread: the self times of a tree add up to its root's duration
    root = next(s for s in spans if s.name == "cli.lossy")
    assert sum(own.values()) == pytest.approx(root.end - root.start, abs=1e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(1, "parent", None, 0.0, 10.0),
             Span(2, "a", 1, 1.0, 4.0),
             Span(3, "b", 1, 3.0, 6.0),      # overlaps a (another thread)
             Span(4, "c", 1, 8.0, 12.0),     # runs past the parent's end
             Span(5, "d", 2, 1.5, 2.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 0.5)


def test_worker_thread_spans_attach_to_the_main_threads_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()

    def work(_):
        with tracer.span("child"):
            pass

    with tracer.span("root"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    spans, _, _ = tracer.take()
    root = next(s for s in spans if s.name == "root")
    assert [s.parent for s in spans if s.name == "child"] == [root.id] * 4


def test_checks_catch_wrong_output(tmp_path):
    (tmp_path / "x.fol").write_bytes(b"P(a)\n")
    with pytest.raises(CheckFailed):
        _decompress_check("x.fol", b"P(b)\n")(tmp_path, "")
    assert mismatch({"v": 1.0 + 1e-12}, {"v": 1.0}) is None
    assert mismatch({"v": 1.0 + 1e-6}, {"v": 1.0}) is not None
    assert mismatch({"n": 3}, {"n": 4}) is not None


@pytest.mark.parametrize("k,epsilon", [(3, 0.01), (9, 1e-3), (20, 1e-3)])
def test_pac_odds_matches_the_program(k, epsilon):
    n0 = pac_sample_bound(k, 0.0, epsilon)
    limit = epsilon / (1 - epsilon)
    assert pac_odds(k, n0) <= limit < pac_odds(k, n0 - 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
