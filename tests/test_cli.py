"""Command-line behavior, file outputs, and exit codes."""

import hashlib
import json
import logging
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from semcomm import lossy as lossy_module
from semcomm import sublang
from semcomm.cli import main
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


# SHA-256 of the `pac K --out` CSVs: K = 60 and 300 take the bisection over c
_PAC_CSV_SHA256 = {
    60: "5d8914d3562a7bf09ea1c91971a51b07dfbe3780033407a256b0b2e07b11810f",
    300: "6e3b784f40ee202ab5633616a898c529830927e5564229b1cbe8fcc3af8cd3dd",
}


@pytest.mark.parametrize("k", sorted(_PAC_CSV_SHA256))
def test_pac_csv_golden(runner, tmp_path, k):
    out = tmp_path / "bounds.csv"
    res = runner.invoke(main, ["pac", str(k), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PAC_CSV_SHA256[k]


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


# --- analyze -----------------------------------------------------------


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


def test_compress_decompress_round_trip(runner, evidence_file, tmp_path):
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


# SHA-256 of the lossy CSV of each bundled story at --slack 1, 2, 3; stories
# 1, 3, 4 and 6 share one frontier per slack, as do 2 and 5
_FRONTIER_A = ("65bcb6493510eebc60b2e343bf5122ca030db6c80b6172ccbae4997fb1dfd9f4",
               "dd11ae9807b4a5872d7476135f339bf9839837b6fb57d11350993ac0502bb2bf",
               "ec9e12399a6551e7e6fe8c6c40c9b7e446ec3f9ff75b74ee69c42e9390326a28")
_FRONTIER_B = ("b9fb9e49fa4260027676c560ffc940e05c8b04b2b81a221718ac22605e873edf",
               "717a3a96654de10efe72f09a27ba1e2fa29b258944f4e9784a9042eb99dac6e4",
               "10fcd5915c43499398f1b978d08ed09f0edf09971a779708844c0860d24c860e")
_LOSSY_CSV_SHA256 = {
    "story1": _FRONTIER_A, "story2": _FRONTIER_B, "story3": _FRONTIER_A,
    "story4": _FRONTIER_A, "story5": _FRONTIER_B, "story6": _FRONTIER_A,
    "story7": ("6b479b653fea7bea02df2befd7a048e8ab7be46f9d1b7e233796adbf9b232de1",
               "f9a06348cedb750ef415682990220be0f5a96e6cdfa75f7e7052ec97c47e146c",
               "6d6028b18d90dd2eac753618c7f06b63326992820278c234e840720bce848e98"),
}


@pytest.mark.parametrize("story", sorted(_LOSSY_CSV_SHA256))
@pytest.mark.parametrize("slack", [1, 2, 3])
def test_lossy_csv_golden(runner, tmp_path, story, slack):
    out = tmp_path / "rd.csv"
    res = runner.invoke(main, ["lossy", str(DATA_DIR / f"{story}.fol"),
                               "--slack", str(slack), "--out", str(out)])
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _LOSSY_CSV_SHA256[story][slack - 1]


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


def _one_error_line(res, code=1):
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)  # not a raw traceback
    errors = [line for line in res.output.splitlines() if "Error:" in line]
    assert len(errors) == 1, res.output
    return errors[0]


@pytest.mark.parametrize("command", ["analyze", "compress", "lossy",
                                     "converge"])
@pytest.mark.parametrize("name, content", [("bad.json", b"{not json"),
                                           ("bad.fol", b"\xffRuns(Wren)\n")])
def test_bad_evidence_file_is_one_error_line(runner, tmp_path, command,
                                             name, content):
    path = tmp_path / name
    path.write_bytes(content)
    res = runner.invoke(main, [command, str(path)])
    assert name in _one_error_line(res)


@pytest.mark.parametrize("command", ["analyze", "compress"])
@pytest.mark.parametrize("manifest", [
    {"stories": ["x"]},
    {"items": []},
    {"stories": [{"id": "a", "evidence": "a.fol"}]},
    # a repeated id would overwrite the first story's output files
    {"stories": [{"id": "a", "text": "a.txt", "evidence": "a.fol"},
                 {"id": "a", "text": "b.txt", "evidence": "b.fol"}]},
])
def test_malformed_manifest_is_usage_error(runner, tiny_corpus, command,
                                           manifest):
    (tiny_corpus / "manifest.json").write_text(json.dumps(manifest))
    _one_error_line(runner.invoke(main, [command, str(tiny_corpus)]), code=2)


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


@pytest.mark.parametrize("command", [["lossy"], ["converge"],
                                     ["compress", "FILE", "--text"]],
                         ids=["lossy", "converge", "compress-text"])
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


# only ``lossy`` needs numpy; the other commands must start without it
_COLD_START = """
import sys
from semcomm.cli import main

story, work = sys.argv[1], sys.argv[2]
for args in (["compress", story, "--out", work + "/s.semc"],
             ["decompress", work + "/s.semc", "--out", work + "/s.fol"],
             ["pac", "3"]):
    main.main(args=args, standalone_mode=False)
if "numpy" in sys.modules:
    sys.exit("numpy was imported")

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


@pytest.mark.parametrize("exponent", [20, 300, 306, 320])
def test_volume_past_float_precision_is_one_error_line(runner, tmp_path,
                                                       exponent):
    # up to 10^300 the posterior's width classes no longer sum to one;
    # past it the likelihood leaves the float range, and 10^320 is an int
    # no float holds
    corpus = _one_story_manifest(tmp_path / "corpus", 10 ** exponent)
    line = _one_error_line(runner.invoke(main, ["analyze", str(corpus)]))
    assert f"{10 ** exponent} observations" in line


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
