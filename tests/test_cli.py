"""Command-line behavior, file outputs, and exit codes."""

import hashlib
import json
import logging
import os
import random
import shutil
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from semcomm import cli, inductive
from semcomm import lossy as lossy_module
from semcomm import sublang
from semcomm.cli import main
from semcomm.errors import clip
from semcomm.fol import EvidenceSet
from semcomm.measures import MessagePartition

from conftest import DATA_DIR, one_statement_container

SMALL_FOL = """\
Sails(Gull)
!Leaks(Gull)
Sails(Tern)
!Leaks(Tern)
Rests(Crab)
!Sails(Crab)
Signals(Fyr)
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def evidence_file(tmp_path):
    p = tmp_path / "harbor.fol"
    p.write_text(SMALL_FOL)
    return p


@pytest.fixture
def tiny_corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.fol").write_text(SMALL_FOL)
    (root / "a.txt").write_text(
        "The gull sails and does not leak; the tern does too. "
        "The crab rests and never sails. The fyr signals. " * 6)
    (root / "b.fol").write_text(
        "Runs(Wren)\n!Stalls(Wren)\nIdles(Coot)\n!Runs(Coot)\n")
    (root / "b.txt").write_text(
        "The wren runs and does not stall while the coot idles. " * 8)
    manifest = {"stories": [
        {"id": "a", "text": "a.txt", "evidence": "a.fol", "observations": 40},
        {"id": "b", "text": "b.txt", "evidence": "b.fol", "observations": 40},
    ]}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


# --- pac ---------------------------------------------------------------


def test_pac_known_point(runner):
    res = runner.invoke(main, ["pac", "2", "--epsilon", "1e-3"])
    assert res.exit_code == 0, res.output
    assert "n0=10" in res.output
    assert "9.766e-04 <- n0" in res.output


def test_pac_single_cell(runner):
    res = runner.invoke(main, ["pac", "1"])
    assert res.exit_code == 0
    assert "n0=1" in res.output


def test_pac_bad_epsilon(runner):
    assert runner.invoke(main, ["pac", "2", "--epsilon", "0"]).exit_code == 2
    assert runner.invoke(main, ["pac", "2", "--epsilon", "1.5"]).exit_code == 2


def test_pac_bad_k(runner):
    assert runner.invoke(main, ["pac", "0"]).exit_code == 2


def test_pac_table_starts_above_alpha(runner):
    # the bound is defined only for n > alpha
    res = runner.invoke(main, ["pac", "5", "--alpha", "2"])
    assert res.exit_code == 0, res.output
    assert "\n  n=3 " in res.output
    assert "n=2 " not in res.output


def test_pac_huge_alpha(runner):
    res = runner.invoke(main, ["pac", "3", "--alpha", "1e308"])
    assert res.exit_code == 0, res.output
    assert "bound=" in res.output


def test_pac_csv(runner, tmp_path):
    out = tmp_path / "bounds.csv"
    res = runner.invoke(main, ["pac", "2", "--epsilon", "1e-3",
                               "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,error_bound"
    assert len(lines) == 1 + 14  # n = 1 .. n0 + 4


# SHA-256 of the `pac ARGS --out` CSVs: K = 17, just past the direct route,
# 60 to 300 take the search over c; 120 and 200 --alpha 0.5 were taken while
# every row took the exact sums of all three neighbours of its peak
_PAC_CSV_SHA256 = {
    "17": "fb64c6164873bdbedf81c1c860ab542ed95ba32a73389d181db09005f45aa833",
    "60": "5d8914d3562a7bf09ea1c91971a51b07dfbe3780033407a256b0b2e07b11810f",
    "60 --alpha 2.5":
        "bc662653145a101550fc1057a22c0d1fbb2fec1be60db700adca3c44bba0f1d5",
    "300": "6e3b784f40ee202ab5633616a898c529830927e5564229b1cbe8fcc3af8cd3dd",
    "120": "8dbfe6e03d4f1ddcd61d1f363474c7b2f86a596df35ee95679b98175b048893c",
    "200 --alpha 0.5":
        "195ec89f955ce398faee88094048f11de9d7d65147277e0a9f87f1deea29f6ea",
}


@pytest.mark.parametrize("args", sorted(_PAC_CSV_SHA256))
def test_pac_csv_golden(runner, tmp_path, args):
    out = tmp_path / "bounds.csv"
    res = runner.invoke(main, ["pac", *args.split(), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PAC_CSV_SHA256[args]


def _count_pac_calls(runner, tmp_path, monkeypatch, name):
    """Calls to inductive's `name` during `pac 60`, and the table's rows."""
    calls = 0
    fn = getattr(inductive, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return fn(*args)

    monkeypatch.setattr(inductive, name, counted)
    out = tmp_path / "bounds.csv"
    res = runner.invoke(main, ["pac", "60", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return calls, len(out.read_text().splitlines()) - 1


def test_pac_table_seeds_each_row(runner, tmp_path, monkeypatch):
    # a bisection per row makes about 10 scans of the c-sums at K = 60; the
    # seeded search makes about 3
    calls, rows = _count_pac_calls(runner, tmp_path, monkeypatch, "_pac_scan")
    assert calls <= 4 * rows


def test_pac_table_takes_one_exact_sum_a_row(runner, tmp_path, monkeypatch):
    # the scans' logs rule out all but one of the peak's three neighbours;
    # the exact sums of all three made 1,489 calls here
    calls, rows = _count_pac_calls(runner, tmp_path, monkeypatch, "_pac_sum")
    assert calls <= rows + 40


# SHA-256 of standard output: the table printed in one write must give the
# bytes it gave with one write per row
_STDOUT_SHA256 = {
    "converge story1.fol":
        "0c1cb460527f165460aca845fa8b4d99b6313f172f43e2e546a8ca483f59538c",
    "pac 17": "8131662a8437749877cfa561084ca11a1aaf301e9bcd531f165f5ce56c1a22f7",
}


@pytest.mark.parametrize("args", sorted(_STDOUT_SHA256))
def test_table_stdout_golden(runner, args):
    command, arg = args.split()
    if command == "converge":
        arg = str(DATA_DIR / arg)
    res = runner.invoke(main, [command, arg])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _STDOUT_SHA256[args]


def _crowd_text():
    """1,000 individuals over 64 kinds of two unary facts each, in the
    shape of the benchmark's crowd: every kind once, then a skewed draw,
    shuffled."""
    rnd = random.Random(80)
    kinds = list(range(64)) + [min(rnd.randrange(64), rnd.randrange(64))
                               for _ in range(936)]
    rnd.shuffle(kinds)
    return "".join(f"A{k % 8}(e{i})\n!B{k // 8}(e{i})\n"
                   for i, k in enumerate(kinds))


# SHA-256 of `converge crowd.fol --slack 16 ARGS` (K = 80): standard output,
# then the --out CSV
_CONVERGE_K80_SHA256 = {
    "": ("ae4083be1dbc8e80cec7f2ea9a723e27493a239a09f3e30a6d1cd78bb403c45b",
         "fbb81c90d8d317769a3287b13d0b71e250a26477784e1e5fb1f69e849c768123"),
    "--lam const:2.5":
        ("9df13cc78b5683bfc85a368e7de3ca4bdb28bb96300ec70398761ce0f2460255",
         "d12fdce5c38ae14935609c6e4a084669985f6440825f3680d82c7499a3c9df72"),
    "--lam const:inf":
        ("9c169eb41461ada411ca6cfb7da2e818ee0505f64a10d4a80fd7bc795dd465ba",
         "63f4e463c36eed0f458307369560793c608c9bd3df73c74356069168801b0d0d"),
    "--alpha 2.5":
        ("a983933464e92527366a0803bb140225e595a598009ad91f8d645b3c310a59e6",
         "307e855df66de0a3cfe1256328752949a81ecefc3abc8bd4cd19e226c36713ff"),
}


@pytest.mark.parametrize("args", sorted(_CONVERGE_K80_SHA256))
def test_converge_golden_at_k80(runner, tmp_path, args):
    crowd = tmp_path / "crowd.fol"
    crowd.write_text(_crowd_text())
    base = ["converge", str(crowd), "--slack", "16", *args.split()]
    res = runner.invoke(main, base)
    assert res.exit_code == 0, res.output
    assert res.output.count("\n") == 1001
    assert "kinds_seen=64 " in res.output.splitlines()[-2]
    out = tmp_path / "trace.csv"
    assert runner.invoke(main, [*base, "--out", str(out)]).exit_code == 0
    digests = (hashlib.sha256(res.stdout_bytes).hexdigest(),
               hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == _CONVERGE_K80_SHA256[args]


# --- converge ----------------------------------------------------------


def test_converge_trace(runner, evidence_file, tmp_path):
    out = tmp_path / "trace.csv"
    res = runner.invoke(main, ["converge", str(evidence_file),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "posterior=" in res.output
    assert "final posterior" in res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,kinds_seen,posterior"
    # one row per entity in the stream
    assert len(lines) == 1 + 4


def test_converge_dogmatic_reaches(runner, tmp_path):
    p = tmp_path / "long.fol"
    stmts = []
    for i in range(40):
        stmts.append(f"Runs(W{i})")
        stmts.append(f"Idles(C{i})")
        stmts.append(f"!Runs(C{i})")
    p.write_text("\n".join(stmts) + "\n")
    res = runner.invoke(main, ["converge", str(p), "--lam", "const:inf"])
    assert res.exit_code == 0, res.output
    assert "reached 0.99 at n=" in res.output


def test_bad_lambda_spec(runner, evidence_file):
    res = runner.invoke(main, ["converge", str(evidence_file),
                               "--lam", "banana"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["converge", str(evidence_file),
                               "--lam", "const:-2"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["converge", str(evidence_file),
                               "--lam", "const:abc"])
    assert res.exit_code == 2
    assert "--lam" in res.output and "not a number: 'abc'" in res.output


# --- analyze -----------------------------------------------------------


@pytest.mark.parametrize("limit, slack, writes", [(4300, 14281, False),
                                                  (640, 2122, True),
                                                  (640, 2123, False)])
def test_analyze_out_bounds_the_hypothesis_count_digits(runner, tmp_path,
                                                        limit, slack, writes):
    # story1 has c = 4, so K = slack + 4; 2^K - 1, the report's hypothesis
    # count, has 4,301 digits at K = 14,285, 640 at K = 2,126 and 641 at
    # K = 2,127.  A count the JSON report cannot hold is refused before the
    # measures run, so the run is quick and writes nothing.
    out = tmp_path / "d"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        start = time.perf_counter()
        res = runner.invoke(main, ["analyze", str(DATA_DIR / "story1.fol"),
                                   "--slack", str(slack), "--out", str(out)])
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(old)
    if writes:
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in out.iterdir()) == ["story1.json",
                                                         "summary.csv"]
    else:
        assert f"K={slack + 4}" in _one_error_line(res)
        assert res.output.count("\n") == 1  # nothing printed before it
        assert not out.exists()
        assert elapsed < 5.0


def test_analyze_single_file(runner, evidence_file):
    res = runner.invoke(main, ["analyze", str(evidence_file)])
    assert res.exit_code == 0, res.output
    assert "normalized" in res.output
    assert "most informative:  harbor" in res.output
    assert "least informative: harbor" in res.output


def test_analyze_two_files_ranked(runner, evidence_file, tmp_path):
    other = tmp_path / "flat.fol"
    other.write_text("Runs(Wren)\nRuns(Lark)\nRuns(Dove)\n")
    res = runner.invoke(main, ["analyze", str(evidence_file), str(other)])
    assert res.exit_code == 0, res.output
    assert "most informative:" in res.output
    assert "least informative:" in res.output


def test_analyze_corpus_reports(runner, tiny_corpus, tmp_path):
    out = tmp_path / "reports"
    res = runner.invoke(main, ["--seed", "7", "analyze", str(tiny_corpus),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "story,normalized,min_scaled,max_scaled"
    assert len(summary) == 3
    record = json.loads((out / "a.json").read_text())
    assert record["params"]["seed"] == 7
    assert record["params_hash"]
    assert record["evidence"]["observations"] == 40
    assert "note" in record["evidence"]
    assert record["scaled"]["min_scaled"]["sign"] in (0, 1)
    assert record["cont_entropy"]["normalized"]["sign"] == 1


def test_analyze_runs_are_deterministic(runner, tiny_corpus, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = runner.invoke(main, ["analyze", str(tiny_corpus),
                                   "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out)
    for name in ("a.json", "b.json", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_analyze_empty_dir(runner, tmp_path):
    res = runner.invoke(main, ["analyze", str(tmp_path)])
    assert res.exit_code == 2
    assert "manifest" in res.output


def test_analyze_dir_plus_file_rejected(runner, tiny_corpus, evidence_file):
    res = runner.invoke(main, ["analyze", str(tiny_corpus),
                               str(evidence_file)])
    assert res.exit_code == 2


# --- compress / decompress ---------------------------------------------


def test_compress_decompress_round_trip(runner, evidence_file, tmp_path,
                                        monkeypatch):
    container = tmp_path / "harbor.semc"
    res = runner.invoke(main, ["compress", str(evidence_file),
                               "--out", str(container)])
    assert res.exit_code == 0, res.output
    assert container.is_file()
    report = json.loads(container.with_suffix(".report.json").read_text())
    assert report["semantic_bits"] == 8 * container.stat().st_size
    assert report["baseline_source"] == "normalized-evidence"
    assert report["ratio"] > 0

    recovered = tmp_path / "back.fol"
    res = runner.invoke(main, ["decompress", str(container),
                               "--out", str(recovered)])
    assert res.exit_code == 0, res.output
    # normalized text of this already-clean stream is identical
    assert recovered.read_text() == SMALL_FOL

    # a container that decodes to other statements is never written
    monkeypatch.setattr(cli, "lossless_decode", lambda blob: EvidenceSet(()))
    audited = tmp_path / "audited.semc"
    res = runner.invoke(main, ["compress", str(evidence_file),
                               "--out", str(audited)])
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "Error: round-trip audit failed: decoded statements differ from input"]
    assert not audited.exists()
    assert not audited.with_suffix(".report.json").exists()


def test_compress_with_narrative_baseline(runner, evidence_file, tmp_path):
    story = tmp_path / "story.txt"
    story.write_text("A long repetitive harbor chronicle. " * 60)
    res = runner.invoke(main, ["compress", str(evidence_file),
                               "--text", str(story),
                               "--out", str(tmp_path / "h.semc")])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "h.report.json").read_text())
    assert report["baseline_source"] == "narrative"
    assert report["fol_text_bits"] == len(SMALL_FOL.encode()) * 8


def test_compress_corpus(runner, tiny_corpus, tmp_path):
    out = tmp_path / "packed"
    res = runner.invoke(main, ["compress", str(tiny_corpus),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "mean ratio:" in res.output
    lines = (out / "compression.csv").read_text().splitlines()
    assert lines[0] == "story,semantic_bits,shannon_bits,ratio"
    assert len(lines) == 3
    for story in ("a", "b"):
        assert (out / f"{story}.semc").is_file()
        assert (out / f"{story}.report.json").is_file()


def test_compress_corpus_rejects_text_flag(runner, tiny_corpus, tmp_path):
    res = runner.invoke(main, ["compress", str(tiny_corpus),
                               "--text", str(tiny_corpus / "a.txt")])
    assert res.exit_code == 2


def test_decompress_corrupt_container(runner, evidence_file, tmp_path):
    container = tmp_path / "harbor.semc"
    res = runner.invoke(main, ["compress", str(evidence_file),
                               "--out", str(container)])
    assert res.exit_code == 0
    blob = bytearray(container.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    container.write_bytes(bytes(blob))
    res = runner.invoke(main, ["decompress", str(container)])
    assert res.exit_code == 1
    assert "checksum" in res.output


def test_decompress_bad_name_is_one_error_line(runner, tmp_path):
    container = tmp_path / "names.semc"
    container.write_bytes(one_statement_container("P", "a b"))
    res = runner.invoke(main, ["decompress", str(container)])
    assert "name syntax" in _one_error_line(res)
    assert not container.with_suffix(".fol").exists()


# --- compress: a fault stops the dataset at its story ----------------


@pytest.mark.parametrize("fault", ["long name", "arity conflict",
                                   "unwritable out", "single-file out"])
def test_failed_compress_stops_at_the_faulty_story(runner, tmp_path, fault):
    corpus = tmp_path / "corpus"
    shutil.copytree(DATA_DIR, corpus)
    story3 = corpus / "story3.fol"
    out = tmp_path / "packed"
    args = [str(corpus), "--out", str(out)]
    if fault == "long name":  # a CapacityError in the third story's encode
        story3.write_text(story3.read_text() + f"P{'x' * 63}(Iris)\n")
    elif fault == "arity conflict":  # a parse error at the third story
        story3.write_text(story3.read_text() + "Tracks(Iris, Vega)\n")
    elif fault == "unwritable out":
        (out / "story3.semc").mkdir(parents=True)
    else:
        args = [str(story3), "--out", str(tmp_path / "missing" / "s.semc")]
    _one_error_line(runner.invoke(main, ["compress", *args]))
    if fault != "single-file out":
        assert (out / "story2.report.json").is_file()
        assert not (out / "story3.report.json").exists()


# --- lossy -------------------------------------------------------------


def test_lossy_sweep_csv(runner, evidence_file, tmp_path):
    out = tmp_path / "curve.csv"
    res = runner.invoke(main, ["lossy", str(evidence_file), "--slack", "1",
                               "--betas", "0,1,4,16,64",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("beta,rate_bits,cont_info_normalized,"
                        "relative_informativeness")
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert float(first[1]) <= 1e-6  # the free point spends no rate


def test_lossy_target_mode(runner, evidence_file):
    res = runner.invoke(main, ["lossy", str(evidence_file), "--slack", "1",
                               "--betas", "0,2,8,32", "--dstar", "0.05"])
    assert res.exit_code == 0, res.output
    assert "target 0.05:" in res.output
    assert "cap=" in res.output


def test_lossy_infeasible_target(runner, evidence_file):
    res = runner.invoke(main, ["lossy", str(evidence_file), "--slack", "1",
                               "--dstar", "5.0"])
    assert res.exit_code == 1
    assert "infeasible" in res.output


def test_lossy_target_with_out_is_usage_error(runner, evidence_file, tmp_path):
    # the target mode writes no CSV, so an --out beside it would be ignored
    out = tmp_path / "curve.csv"
    res = runner.invoke(main, ["lossy", str(evidence_file), "--slack", "1",
                               "--dstar", "0.05", "--out", str(out)])
    assert "--dstar" in _one_error_line(res, code=2)
    assert not out.exists()


def test_lossy_debug_log_explains_the_run(runner, evidence_file, tmp_path,
                                          caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="semcomm")
    args = ["lossy", str(evidence_file), "--slack", "1", "--betas", "0,4",
            "--out", str(tmp_path / "curve.csv")]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    messages = [r.getMessage() for r in caplog.records]
    assert "sub-language: K=4, c=3" in messages
    assert ("quotient channel: 2 weighted rows in 2 classes, "
            "16 reconstructions in 8 classes, 10 nonzero blocks") in messages
    points = [m for m in messages if m.startswith("beta=")]
    assert len(points) == 2
    assert points[0].startswith("beta=0: ")
    assert points[1].startswith("beta=4: ")
    assert all("converged=True, objective=" in m for m in points)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    # a point that runs out of passes is reported, not silent
    caplog.clear()
    monkeypatch.setattr(lossy_module, "_MAX_ITERS", 1)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING]
    assert warned == [f"beta={b} stopped after 1 passes without converging"
                      for b in (0, 4)]


# SHA-256 of the lossy CSV of each bundled story at --slack 0, 1, 2, 3; at
# slack 0 the sender has one message, so every story has the one-point
# frontier of _ONE_ROW, and each column class of the channel holds one
# column; stories 1, 3, 4 and 6 share one frontier per slack, as do 2 and 5
_ONE_ROW = "6b13c0843d47057436c2f47d8c33f980483f0f1ab8668b672c732c360c273b0d"
_FRONTIER_A = (_ONE_ROW,
               "65bcb6493510eebc60b2e343bf5122ca030db6c80b6172ccbae4997fb1dfd9f4",
               "dd11ae9807b4a5872d7476135f339bf9839837b6fb57d11350993ac0502bb2bf",
               "ec9e12399a6551e7e6fe8c6c40c9b7e446ec3f9ff75b74ee69c42e9390326a28")
_FRONTIER_B = (_ONE_ROW,
               "b9fb9e49fa4260027676c560ffc940e05c8b04b2b81a221718ac22605e873edf",
               "717a3a96654de10efe72f09a27ba1e2fa29b258944f4e9784a9042eb99dac6e4",
               "10fcd5915c43499398f1b978d08ed09f0edf09971a779708844c0860d24c860e")
_LOSSY_CSV_SHA256 = {
    "story1": _FRONTIER_A, "story2": _FRONTIER_B, "story3": _FRONTIER_A,
    "story4": _FRONTIER_A, "story5": _FRONTIER_B, "story6": _FRONTIER_A,
    "story7": (_ONE_ROW,
               "6b479b653fea7bea02df2befd7a048e8ab7be46f9d1b7e233796adbf9b232de1",
               "f9a06348cedb750ef415682990220be0f5a96e6cdfa75f7e7052ec97c47e146c",
               "6d6028b18d90dd2eac753618c7f06b63326992820278c234e840720bce848e98"),
}


@pytest.mark.parametrize("story", sorted(_LOSSY_CSV_SHA256))
@pytest.mark.parametrize("slack", [0, 1, 2, 3])
def test_lossy_csv_golden(runner, tmp_path, story, slack):
    out = tmp_path / "rd.csv"
    res = runner.invoke(main, ["lossy", str(DATA_DIR / f"{story}.fol"),
                               "--slack", str(slack), "--out", str(out)])
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _LOSSY_CSV_SHA256[story][slack]


def test_lossy_past_enumeration_limit_is_one_error_line(runner, monkeypatch,
                                                        tmp_path):
    # the constituent table refuses K = 13 before any payoff is priced
    def refuse(*args, **kwargs):
        raise AssertionError("lossy priced a payoff past the limit")

    monkeypatch.setattr(lossy_module, "payoff_matrix", refuse)
    res = runner.invoke(main, ["lossy", str(DATA_DIR / "story1.fol"),
                               "--slack", "9", "--out",
                               str(tmp_path / "rd.csv")])
    line = _one_error_line(res)
    assert "K=13" in line and "K=12" in line
    assert not (tmp_path / "rd.csv").exists()


def test_lossy_objective_rounding_is_not_a_rise(runner, tmp_path):
    # at beta = 16384 the objective nears -16,037 and a pass rounds it up
    # by 1.3e-9, past an absolute slack of 1e-9
    out = tmp_path / "rd.csv"
    res = runner.invoke(main, ["lossy", str(DATA_DIR / "story1.fol"), "--slack", "8",
                               "--betas", "0,16384", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 3


def test_lossy_bad_betas(runner, evidence_file):
    res = runner.invoke(main, ["lossy", str(evidence_file),
                               "--betas", "0,fast"])
    assert res.exit_code == 2


# --- group -------------------------------------------------------------


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "semcomm" in res.output


def test_help_lists_commands(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    for cmd in ("analyze", "compress", "decompress", "lossy", "pac",
                "converge"):
        assert cmd in res.output


@pytest.mark.parametrize("command, args", [
    ("analyze", ["--slack", "-1"]),
    ("analyze", ["--alpha", "-1"]),
    ("lossy", ["--slack", "-1"]),
    ("lossy", ["--alpha", "nan"]),
    ("lossy", ["--betas", "-1,2"]),
    ("lossy", ["--dstar", "nan"]),
    ("converge", ["--threshold", "2"]),
    ("converge", ["--threshold", "nan"]),
    ("pac", ["--alpha", "nan"]),
    ("pac", ["--alpha", "inf"]),
    ("pac", ["--alpha", "-1"]),
])
def test_bad_numeric_option_is_usage_error(runner, evidence_file, command,
                                           args):
    target = "5" if command == "pac" else str(evidence_file)
    res = runner.invoke(main, [command, target, *args])
    assert res.exit_code == 2, res.output
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit)  # not a raw traceback


_DEEP = "[" * 10 ** 5 + "]" * 10 ** 5  # past the JSON parser's recursion limit


def _one_error_line(res, code=1):
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)  # not a raw traceback
    errors = [line for line in res.output.splitlines() if "Error:" in line]
    assert len(errors) == 1, res.output
    return errors[0]


@pytest.mark.parametrize("command", ["analyze", "compress", "lossy",
                                     "converge"])
@pytest.mark.parametrize("name, content", [("bad.json", b"{not json"),
                                           ("bad.fol", b"\xffRuns(Wren)\n"),
                                           pytest.param("deep.json", _DEEP.encode(),
                                                        id="deep.json"),
                                           # past the interpreter's int digit limit
                                           pytest.param("long_int.json",
                                                        b"[" + b"9" * 5000 + b"]",
                                                        id="long_int.json")])
def test_bad_evidence_file_is_one_error_line(runner, tmp_path, command,
                                             name, content):
    path = tmp_path / name
    path.write_bytes(content)
    res = runner.invoke(main, [command, str(path)])
    assert name in _one_error_line(res)
    assert list(tmp_path.iterdir()) == [path]


_LONG = "x" * 10 ** 6
# each file makes an error message quote a megabyte of its input
_LONG_INPUT = {
    "trailing.fol": f"P(a) {_LONG}\n",
    "item.json": json.dumps([["R", _LONG, 3]]),
    "arity.fol": f"P{_LONG}(a)\nP{_LONG}(a, b)\n",
    "name.fol": f"P{_LONG}(a)\n",  # a name too long for the container
    "contradiction.fol": f"P({_LONG})\n!P({_LONG})\n",
}


@pytest.mark.parametrize("command, name", [
    ("analyze", "trailing.fol"), ("analyze", "item.json"),
    ("analyze", "arity.fol"), ("compress", "name.fol"),
    ("analyze", "contradiction.fol")])
def test_error_quoting_long_input_stays_short(runner, tmp_path, command, name):
    path = tmp_path / name
    path.write_text(_LONG_INPUT[name])
    res = runner.invoke(main, [command, str(path)])
    assert len(_one_error_line(res).encode()) < 1024


@pytest.mark.parametrize("command", ["analyze", "compress"])
@pytest.mark.parametrize("manifest", [
    {"stories": ["x"]},
    {"items": []},
    {"stories": [{"id": "a", "evidence": "a.fol"}]},
    # a repeated id would overwrite the first story's output files
    {"stories": [{"id": "a", "text": "a.txt", "evidence": "a.fol"},
                 {"id": "a", "text": "b.txt", "evidence": "b.fol"}]},
    # the id names the story's output files, so "../leak" would write
    # beside --out, "" a hidden file and 7 a file named "7"; the error
    # quotes at most a short head of a long id
    *({"stories": [{"id": story_id, "text": "a.txt", "evidence": "a.fol"}]}
      for story_id in ("", ".", "..", "../leak", "a/b", "a\\b", "a\0b",
                       ["a"], None, 7, f"a/{_LONG}")),
])
def test_malformed_manifest_is_usage_error(runner, tiny_corpus, command,
                                           manifest):
    _manifest_is_usage_error(runner, tiny_corpus, command, json.dumps(manifest))


@pytest.mark.parametrize("command", ["analyze", "compress"])
def test_deeply_nested_manifest_is_usage_error(runner, tiny_corpus, command):
    _manifest_is_usage_error(runner, tiny_corpus, command, _DEEP)


def _manifest_is_usage_error(runner, tiny_corpus, command, manifest):
    (tiny_corpus / "manifest.json").write_text(manifest)
    before = sorted(tiny_corpus.parent.rglob("*"))
    res = runner.invoke(main, [command, str(tiny_corpus),
                               "--out", str(tiny_corpus.parent / "out")])
    assert len(_one_error_line(res, code=2).encode()) < 1024
    assert sorted(tiny_corpus.parent.rglob("*")) == before


@pytest.mark.parametrize("command, content, args", [
    ("converge", "", []),
    ("analyze", "", []),                         # K = 1 at --slack 1
    ("analyze", "Runs(Wren)\nRuns(Coot)\n", ["--slack", "0"]),
])
def test_degenerate_evidence_is_one_error_line(runner, tmp_path, command,
                                               content, args):
    path = tmp_path / "thin.fol"
    path.write_text(content)
    res = runner.invoke(main, [command, str(path), *args])
    assert str(path) in _one_error_line(res)


@pytest.mark.parametrize("command", [["lossy"], ["converge"], ["decompress"],
                                     ["compress", "FILE", "--text"]],
                         ids=["lossy", "converge", "decompress",
                              "compress-text"])
def test_directory_argument_is_usage_error(runner, evidence_file, tmp_path,
                                           command):
    args = [str(evidence_file) if a == "FILE" else a for a in command]
    res = runner.invoke(main, [*args, str(tmp_path)])
    assert "is a directory" in _one_error_line(res, code=2)


def test_dataset_out_file_is_usage_error(runner, tiny_corpus, tmp_path):
    out = tmp_path / "taken"
    out.write_text("keep me")
    res = runner.invoke(main, ["compress", str(tiny_corpus), "--out", str(out)])
    assert "is a file" in _one_error_line(res, code=2)
    assert out.read_text() == "keep me"


def test_observations_below_kinds_is_one_error_line(runner, tiny_corpus):
    manifest = json.loads((tiny_corpus / "manifest.json").read_text())
    manifest["stories"][0]["observations"] = 2  # story a has 3 kinds
    (tiny_corpus / "manifest.json").write_text(json.dumps(manifest))
    line = _one_error_line(runner.invoke(main, ["analyze", str(tiny_corpus)]))
    assert line == "Error: a: cannot spread 2 observations over 3 kinds"


# the cold start loads none of dataclasses, hashlib, signal or numpy;
# then analyze alone imports hashlib, lossy alone numpy, compress signal
# only when it kills its child early, and no command imports dataclasses
_COLD_START = """
import sys
from semcomm.cli import main
from semcomm.errors import clip

LAZY = ("dataclasses", "hashlib", "signal", "numpy")


def check(step, absent):
    loaded = [name for name in absent if name in sys.modules]
    if loaded:
        sys.exit(f"{step} imported {loaded}")


check("import semcomm.cli", LAZY)
story, work = sys.argv[1], sys.argv[2]
for args, absent in ((["compress", story, "--out", work + "/s.semc"], LAZY),
                     (["decompress", work + "/s.semc", "--out", work + "/s.fol"], LAZY),
                     (["pac", "3"], LAZY),
                     (["converge", story], LAZY),
                     (["analyze", story], ("dataclasses", "numpy")),
                     (["lossy", story, "--out", work + "/s.csv"], ("dataclasses",))):
    main.main(args=args, standalone_mode=False)
    check(args[0], absent)

import semcomm
from semcomm import rd_sweep
missing = [name for name in semcomm.__all__ if not hasattr(semcomm, name)]
if missing:
    sys.exit(f"unresolved names: {missing}")
"""


def test_commands_start_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(DATA_DIR / "story1.fol"),
         str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["compress", "decompress", "lossy",
                                     "converge", "pac"])
def test_out_directory_is_usage_error(runner, evidence_file, tmp_path,
                                      command):
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    target = {"pac": "3", "decompress": str(evidence_file.with_suffix(".semc"))
              }.get(command, str(evidence_file))
    if command == "decompress":
        assert runner.invoke(main, ["compress", str(evidence_file)]).exit_code == 0
    res = runner.invoke(main, [command, target, "--out", str(outdir)])
    assert "Error:" in _one_error_line(res, code=2)
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command", ["compress", "decompress", "lossy",
                                     "converge", "pac"])
def test_out_in_missing_directory_is_one_error_line(runner, evidence_file,
                                                    tmp_path, command):
    target = {"pac": "3", "decompress": str(evidence_file.with_suffix(".semc"))
              }.get(command, str(evidence_file))
    if command == "decompress":
        assert runner.invoke(main, ["compress", str(evidence_file)]).exit_code == 0
    out = tmp_path / "missing" / "out"
    res = runner.invoke(main, [command, target, "--out", str(out)])
    line = _one_error_line(res)
    assert "No such file or directory" in line
    # the output is written before the table is printed
    assert res.output.splitlines() == [line]
    assert not out.parent.exists()


def test_analyze_out_under_a_file_is_one_error_line(runner, evidence_file,
                                                    tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    res = runner.invoke(main, ["analyze", str(evidence_file),
                               "--out", str(blocker / "reports")])
    line = _one_error_line(res)
    assert "Not a directory" in line
    assert res.output.splitlines() == [line]
    assert blocker.read_text() == "keep me"


def test_closed_stdout_is_not_an_error_line(runner, monkeypatch):
    # a reader that quits early, as `semcomm pac 300 | head` does, closes
    # the pipe; click exits 1 quietly, where an OSError is one error line
    def closed(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli.click, "echo", closed)
    res = runner.invoke(main, ["pac", "3"])
    assert res.exit_code == 1
    assert "Error:" not in res.output


def _one_story_manifest(root, observations):
    root.mkdir()
    manifest = {"stories": [{
        "id": "s", "text": str(DATA_DIR / "story1.txt"),
        "evidence": str(DATA_DIR / "story1.fol"),
        "observations": observations}]}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


@pytest.mark.parametrize("exponent", [8, 9])
def test_huge_evidence_volume_reports(runner, tmp_path, exponent):
    corpus = _one_story_manifest(tmp_path / "corpus", 10 ** exponent)
    res = runner.invoke(main, ["analyze", str(corpus)])
    assert res.exit_code == 0, res.output
    assert "most informative:  s" in res.output


@pytest.mark.parametrize("exponent", [20, 300, 306, 320, 4000])
def test_volume_past_float_precision_is_one_error_line(runner, tmp_path,
                                                       exponent):
    # up to 10^300 the posterior's width classes no longer sum to one;
    # past it the likelihood leaves the float range, and 10^320 is an int
    # no float holds; the error quotes a short head of a long count
    corpus = _one_story_manifest(tmp_path / "corpus", 10 ** exponent)
    line = _one_error_line(runner.invoke(main, ["analyze", str(corpus)]))
    assert f"{clip(str(10 ** exponent))} observations" in line
    assert len(line.encode()) < 1024


def test_dogmatic_volume_past_float_range_is_one_error_line(runner, tmp_path):
    # the dogmatic likelihood -n ln w meets the same int no float holds
    corpus = _one_story_manifest(tmp_path / "corpus", 10 ** 320)
    res = runner.invoke(main, ["analyze", str(corpus), "--lam", "const:inf"])
    assert f"{clip(str(10 ** 320))} observations" in _one_error_line(res)


@pytest.mark.parametrize("command, alpha", [
    ("analyze", "1e308"), ("converge", "1e308"), ("lossy", "1e308"),
    ("analyze", "1e200"), ("converge", "1e200"), ("lossy", "1e200")])
def test_alpha_past_float_range_is_one_error_line(runner, tmp_path, command,
                                                  alpha):
    # 1e308 overflows the prior; at 1e200 the prior swamps the posterior's
    # precision, and the error must not blame the ten observations
    res = runner.invoke(main, [command, str(DATA_DIR / "story1.fol"),
                               "--alpha", alpha, "--out",
                               str(tmp_path / "out")])
    line = _one_error_line(res)
    assert f"alpha={float(alpha)!r}" in line
    assert "observations" not in line


@pytest.mark.parametrize("command", ["analyze", "converge"])
def test_lambda_too_small_to_price_is_one_error_line(runner, command):
    res = runner.invoke(main, [command, str(DATA_DIR / "story1.fol"),
                               "--lam", "const:5e-324"])
    assert "lambda=5e-324" in _one_error_line(res)


@pytest.mark.parametrize("lam", ["1e-300", "1e-308"])
def test_converge_tiny_lambda_matches_width_table(runner, lam):
    # w / lam overflows a float at 1e-308; the width table reads 0.709421
    res = runner.invoke(main, ["converge", str(DATA_DIR / "story1.fol"),
                               "--lam", f"const:{lam}"])
    assert res.exit_code == 0, res.output
    assert "final posterior 0.709421;" in res.output


def test_repeated_file_stem_is_usage_error(runner, evidence_file, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    twin = other / evidence_file.name
    twin.write_text("Runs(Wren)\n!Stalls(Wren)\nIdles(Coot)\n")
    out = tmp_path / "reports"
    res = runner.invoke(main, ["analyze", str(evidence_file), str(twin),
                               "--out", str(out)])
    assert "'harbor'" in _one_error_line(res, code=2)
    assert not out.exists()


def test_analyze_enumerates_no_hypotheses(runner, monkeypatch, tmp_path):
    # the entropies sum over width classes; only lossy lists hypotheses
    def refuse(*args, **kwargs):
        raise AssertionError("analyze enumerated the hypotheses")

    monkeypatch.setattr(sublang, "enumerate_constituents", refuse)
    monkeypatch.setattr(sublang, "_constituent_table", refuse)
    monkeypatch.setattr(sublang.SubLanguage, "upset", refuse)
    monkeypatch.setattr(MessagePartition, "from_model", refuse)
    res = runner.invoke(main, ["analyze", str(DATA_DIR),
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "summary.csv").is_file()
