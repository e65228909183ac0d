"""Command-line behavior, file outputs, and exit codes."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from semcomm.cli import main

from conftest import DATA_DIR

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


def test_pac_csv(runner, tmp_path):
    out = tmp_path / "bounds.csv"
    res = runner.invoke(main, ["pac", "2", "--epsilon", "1e-3",
                               "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,error_bound"
    assert len(lines) == 1 + 14  # n = 1 .. n0 + 4


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
