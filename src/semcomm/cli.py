"""Command-line front end.

Six subcommands: ``analyze`` (content and surprise entropies over evidence
files or a story collection), ``compress`` / ``decompress`` (the lossless
container), ``lossy`` (rate against transmitted content), ``pac`` (sample
bounds for hypothesis identification), and ``converge`` (posterior trace
along an observation stream).  ``--lam`` sets
``InductiveParams.lambda_value``: ``w`` leaves it None, the weight λ(w) = w,
and ``const:<v>`` makes it the constant v (``const:inf`` is dogmatic).

Everything here is deterministic.  ``--seed`` is accepted and recorded in
reports for provenance, but no command draws random numbers.  Set the
``SEMCOMM_LOG`` environment variable (e.g. ``info`` or ``debug``) to get
progress logging on stderr.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import click

from . import __version__
from .dataset import load_evidence, load_manifest
from .errors import CapacityError, DecodeError, SemcommError
from .fol import EvidenceSet
from .inductive import (InductiveModel, InductiveParams, check_convergence,
                        pac_errors, pac_sample_bound)
from .lossless import (gzip_bits, lossless_decode, lossless_encode_report,
                       shannon_baseline)
from .measures import (MessagePartition, UniverseSignature, cont_entropy,
                       inf_entropy, scale_entropies)
from .sublang import SubLanguageConfig, build_sublanguage

log = logging.getLogger("semcomm.cli")


def _parse_lambda(text: str) -> float | None:
    """Smoothing-weight spec: "w" (None) or "const:<value>" ("inf" allowed)."""
    if text == "w":
        return None
    if text.startswith("const:"):
        raw = text[len("const:"):]
        try:
            value = float(raw)
        except ValueError:
            raise click.BadParameter(f"not a number: {raw!r}", param_hint="--lam")
        if not value > 0:
            raise click.BadParameter("constant weight must be positive",
                                     param_hint="--lam")
        return value
    raise click.BadParameter(f"expected 'w' or 'const:<value>', got {text!r}",
                             param_hint="--lam")


def _make_params(lam: str, alpha: float) -> InductiveParams:
    value = _parse_lambda(lam)
    try:
        return InductiveParams(lambda_value=value, alpha=alpha)
    except ValueError as exc:  # _parse_lambda vetted the rest, so it is alpha
        raise click.BadParameter(str(exc), param_hint="--alpha")


def _echo_lines(lines) -> None:
    """Print a table in one write."""
    click.echo("\n".join(lines))


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_stories(directory):
    try:
        return load_manifest(directory)
    except (FileNotFoundError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _friendly(fn):
    """Surface library and file-system errors as one-line failures (exit 1).

    A closed stdout pipe is left to click, which exits quietly.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrokenPipeError:
            raise
        except (SemcommError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


_lam_option = click.option("--lam", default="w", show_default=True,
                           help="Smoothing weight: 'w' (width-proportional) "
                                "or 'const:<value>'; 'const:inf' gives the "
                                "dogmatic endpoint.")
_alpha_option = click.option("--alpha", default=0.0, show_default=True,
                             help="Prior sample-size weight.")


@click.group()
@click.option("--seed", type=int, default=None,
              help="Recorded in reports; no command uses randomness.")
@click.version_option(version=__version__, prog_name="semcomm")
@click.pass_context
def main(ctx, seed):
    """Semantic information measures and semantic compression."""
    level = os.environ.get("SEMCOMM_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s")
    ctx.obj = {"seed": seed}


# --- analyze -----------------------------------------------------------


def _analyze_one(ev: EvidenceSet, fmt: str, observations: int | None, slack: int,
                 params: InductiveParams, label: str, writes_json: bool) -> tuple:
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    # the report holds the exact 2^K - 1 hypothesis count, which json.dumps
    # cannot write with more digits than the interpreter's int limit (0 is
    # none; interpreters before 3.10.7 have none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if writes_json and limit and math.floor(sl.big_k * math.log10(2)) + 1 > limit:
        raise CapacityError(f"{label}: K={sl.big_k} makes the hypothesis count "
                            f"longer than {limit} digits, too long for a JSON "
                            "report; drop --out or lower --slack")
    summary = sl.summary
    scaled = observations is not None and observations != summary.n
    if observations is not None:
        try:
            summary = summary.scaled_to(observations)
        except ValueError as exc:  # fewer observations than kinds
            raise click.ClickException(f"{label}: {exc}") from exc
    model = InductiveModel(sl, params, summary)
    sig = UniverseSignature(len(ev.predicates), len(ev.entities))
    ce = cont_entropy(model, sig)
    record = {
        "source_id": ev.source_id,
        "format": fmt,
        "evidence": {
            "entities": len(ev.entities),
            "predicates": len(ev.predicates),
            "statements": len(ev.statements),
            "distinct_statements": len(ev.distinct_statements),
            "kinds_observed": sl.summary.c,
            "big_k": sl.big_k,
            "observations": observations,
        },
        "universe": sig.as_json(),
        "inf_entropy_bits": inf_entropy(model),
        "cont_entropy": ce.as_json(),
    }
    if scaled:
        record["evidence"]["note"] = (
            "kind counts reapportioned to the declared observation volume; "
            "each statement stream stands in for that many individuals")
    return record, ce.normalized


@main.command()
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True))
@click.option("--slack", type=click.IntRange(min=0), default=1,
              show_default=True,
              help="Unexemplified cells kept in the hypothesis space.")
@_lam_option
@_alpha_option
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for per-source JSON reports and summary.csv.")
@click.pass_context
@_friendly
def analyze(ctx, paths, slack, lam, alpha, out):
    """Entropy measures for evidence files or a story collection.

    PATHS is either one directory holding a manifest.json, or one or more
    evidence files (.fol line syntax or .json statement lists).  Scaled
    columns compare the sources analyzed in this run against each other.
    """
    import hashlib  # here alone, so the other commands start without it

    params = _make_params(lam, alpha)
    record_params = {"lambda": lam, "alpha": alpha, "slack": slack,
                     "seed": ctx.obj["seed"]}
    digest = hashlib.sha256(
        json.dumps(record_params, sort_keys=True).encode()).hexdigest()[:16]

    dirs = [p for p in paths if Path(p).is_dir()]
    if dirs and len(paths) > 1:
        raise click.UsageError("pass one dataset directory or only files")

    jobs = []
    if dirs:
        for st in _load_stories(dirs[0]):
            ev, fmt = load_evidence(st.evidence_path)
            jobs.append((st.evidence_path, ev, fmt, st.observations, st.story_id))
    else:
        stems = [Path(p).stem for p in paths]  # row labels, report names
        for p, stem in zip(paths, stems):
            if stems.count(stem) > 1:
                raise click.UsageError(f"two evidence files are named {stem!r}")
            ev, fmt = load_evidence(p)
            jobs.append((p, ev, fmt, None, stem))

    rows = []
    for path, ev, fmt, observations, label in jobs:
        record, value = _analyze_one(ev, fmt, observations, slack, params, label,
                                     bool(out))
        if value.is_zero:  # the scaled columns divide by it
            raise click.ClickException(f"{path}: one hypothesis holds all the "
                                       "mass, so there is no content to scale; "
                                       "raise --slack")
        record["params"] = record_params
        record["params_hash"] = digest
        rows.append((label, record, value))

    scaled = scale_entropies([value for _, _, value in rows])
    table = []  # label, then the normalized, min- and max-scaled values
    for (label, record, value), lo, hi in zip(rows, scaled["min_scaled"],
                                              scaled["max_scaled"]):
        record["scaled"] = {"min_scaled": lo.as_json(),
                            "max_scaled": hi.as_json()}
        table.append([label, *(x.format_scientific() for x in (value, lo, hi))])
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for label, record, _ in rows:
            _write_json(outdir / f"{label}.json", record)
        _write_csv(outdir / "summary.csv",
                   ["story", "normalized", "min_scaled", "max_scaled"], table)
        log.info("wrote %d reports to %s", len(rows), outdir)
    _echo_lines([
        f"{'source':<12}{'normalized':>14}{'min_scaled':>14}{'max_scaled':>14}",
        *(f"{label:<12}{value:>14}{lo:>14}{hi:>14}"
          for label, value, lo, hi in table),
        f"most informative:  {max(rows, key=lambda r: r[2])[0]}",
        f"least informative: {min(rows, key=lambda r: r[2])[0]}"])


# --- compress / decompress ---------------------------------------------


def _compress_one(ev: EvidenceSet, normalized: str, baseline: bytes,
                  baseline_source: str) -> tuple[bytes, dict]:
    """Encode and audit one evidence set, and compare it with the
    byte-level baselines of ``baseline``, labelled ``baseline_source``."""
    blob, report = lossless_encode_report(ev)
    if lossless_decode(blob).normalized_text() != normalized:
        raise click.ClickException(
            "round-trip audit failed: decoded statements differ from input")
    fol = normalized.encode()
    shannon = shannon_baseline(baseline)
    semantic = report.semantic_bits
    record = {
        "semantic_bits": semantic,
        "shannon_bits": shannon,
        "ratio": (shannon / semantic) if semantic else None,
        "baseline_source": baseline_source,
        "breakdown": report.as_json(),
        "fol_text_bits": len(fol) * 8,
        "gzip_bits": gzip_bits(baseline),
        "stage1_ratio": (shannon / (len(fol) * 8)) if fol else None,
        "stage2_ratio": ((len(fol) * 8) / semantic) if semantic else None,
    }
    return blob, record


def _write_container(target: Path, blob: bytes, record: dict) -> None:
    target.write_bytes(blob)
    _write_json(target.with_suffix(".report.json"), record)


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.option("--text", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Narrative file for the byte-level baseline "
                   "(single-file mode only; datasets carry their own).")
@click.option("--out", type=click.Path(), default=None,
              help="Container path (single file) or output directory "
                   "(dataset).")
@_friendly
def compress(source, text, out):
    """Encode evidence into a .semc container, with baseline comparison.

    SOURCE is an evidence file or a dataset directory with a manifest.
    The container is written only after an in-memory decode reproduces
    the input statements exactly.
    """
    src = Path(source)
    if src.is_dir():
        if text:
            raise click.UsageError("--text applies to single-file mode only")
        stories = _load_stories(src)
        outdir = Path(out) if out else Path("compressed")
        if outdir.exists() and not outdir.is_dir():
            raise click.UsageError(f"--out {outdir} is a file; dataset mode "
                                   "writes a directory of containers")
        outdir.mkdir(parents=True, exist_ok=True)
        rows = []
        for story in stories:
            ev, _ = load_evidence(story.evidence_path)
            blob, record = _compress_one(ev, ev.normalized_text(),
                                         story.read_text(), "narrative")
            _write_container(outdir / f"{story.story_id}.semc", blob, record)
            rows.append((story.story_id, record["semantic_bits"],
                         record["shannon_bits"], record["ratio"]))
        _write_csv(outdir / "compression.csv",
                   ["story", "semantic_bits", "shannon_bits", "ratio"],
                   ([label, semantic, shannon, f"{ratio:.2f}"]
                    for label, semantic, shannon, ratio in rows))
        mean = sum(row[3] for row in rows) / len(rows)
        _echo_lines([f"{'story':<12}{'semantic':>10}{'shannon':>10}{'ratio':>8}",
                     *(f"{label:<12}{semantic:>10}{shannon:>10}{ratio:>8.2f}"
                       for label, semantic, shannon, ratio in rows),
                     f"mean ratio: {mean:.2f}"])
        return

    if out and Path(out).is_dir():
        raise click.UsageError(f"--out {out} is a directory; single-file "
                               "mode writes one container file")
    ev, _ = load_evidence(src)
    normalized = ev.normalized_text()
    if text:
        baseline, baseline_source = Path(text).read_bytes(), "narrative"
    else:
        baseline, baseline_source = normalized.encode(), "normalized-evidence"
    blob, record = _compress_one(ev, normalized, baseline, baseline_source)
    target = Path(out) if out else src.with_suffix(".semc")
    _write_container(target, blob, record)
    click.echo(f"wrote {target} ({len(blob)} bytes)")
    click.echo(f"semantic_bits={record['semantic_bits']} "
               f"shannon_bits={record['shannon_bits']} "
               f"ratio={record['ratio']:.2f} "
               f"(baseline: {record['baseline_source']})")


@main.command()
@click.argument("container", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Where to write the recovered statements.")
@_friendly
def decompress(container, out):
    """Recover the statement stream from a .semc container."""
    try:
        ev = lossless_decode(Path(container).read_bytes())
    except DecodeError as exc:
        raise click.ClickException(
            f"container rejected ({exc}); the checksum guards against "
            "truncation and bit corruption")
    target = Path(out) if out else Path(container).with_suffix(".fol")
    target.write_text(ev.normalized_text())
    click.echo(f"recovered {len(ev.statements)} statements to {target}")


# --- lossy -------------------------------------------------------------


@main.command()
@click.argument("evidence", type=click.Path(exists=True, dir_okay=False))
@click.option("--slack", type=click.IntRange(min=0), default=3,
              show_default=True,
              help="Unexemplified cells kept in the hypothesis space.")
@_lam_option
@_alpha_option
@click.option("--betas", default=None,
              help="Comma-separated multiplier grid (default: 0 and powers "
                   "of two up to 8192).")
@click.option("--dstar", type=float, default=None,
              help="Fidelity floor: report the cheapest channel whose "
                   "transmitted content reaches this value.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV path for the sweep (default: <evidence>.rd.csv).")
@_friendly
def lossy(evidence, slack, lam, alpha, betas, dstar, out):
    """Rate against transmitted content for one evidence source.

    The sender's message space is the hypothesis partition under the
    posterior; reconstructions are truthful weakenings, valued by what
    they rule out for a receiver who has seen no evidence.
    """
    # imported here so that the other commands start without numpy
    from .lossy import (LossyConfig, candidate_reconstructions, content_cap,
                        lossy_optimize, rd_sweep, receiver_prior,
                        relative_informativeness)

    params = _make_params(lam, alpha)
    if betas is not None:
        try:
            grid = tuple(float(b) for b in betas.split(","))
        except ValueError:
            raise click.BadParameter("expected comma-separated numbers",
                                     param_hint="--betas")
    else:
        grid = LossyConfig().beta_grid
    try:
        cfg = LossyConfig(d_star=0.0 if dstar is None else dstar,
                          beta_grid=grid)
    except ValueError as exc:  # a negative or non-finite beta or floor
        raise click.UsageError(str(exc))
    if dstar is not None and out is not None:
        raise click.UsageError("--out names the sweep's CSV, and --dstar "
                               "reports one point without a sweep")

    ev, _ = load_evidence(evidence)
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    log.debug("sub-language: K=%d, c=%d", sl.big_k, sl.summary.c)
    model = InductiveModel(sl, params)
    source = MessagePartition.from_model(model)
    receiver = receiver_prior(sl, params)
    alphabet = candidate_reconstructions(model)
    log.info("alphabet: %d reconstruction sentences", len(alphabet))

    cap = content_cap(source, alphabet, receiver)
    if dstar is not None:
        point = lossy_optimize(source, alphabet, cfg, receiver)
        click.echo(f"target {dstar:g}: rate={point.rate_bits:.4f} bits, "
                   f"content={point.cont_info:.6f} "
                   f"(beta={point.beta:g}, cap={cap.cont_info:.6f})")
        return

    rows = [(pt.beta, pt.rate_bits, pt.cont_info,
             relative_informativeness(pt, cap.cont_info))
            for pt in rd_sweep(source, alphabet, cfg, receiver)]
    target = Path(out) if out else Path(evidence).with_suffix(".rd.csv")
    _write_csv(target, ["beta", "rate_bits", "cont_info_normalized",
                        "relative_informativeness"],
               ([f"{beta:g}", f"{rate:.6f}", f"{info:.9f}", f"{rel:.6f}"]
                for beta, rate, info, rel in rows))
    _echo_lines([f"{'beta':>10}{'rate_bits':>12}{'cont_info':>12}{'relative':>10}",
                 *(f"{beta:>10g}{rate:>12.4f}{info:>12.6f}{rel:>10.4f}"
                   for beta, rate, info, rel in rows),
                 f"wrote {target}"])


# --- pac ---------------------------------------------------------------


@main.command()
@click.argument("k", type=int)
@_alpha_option
@click.option("--epsilon", default=1e-3, show_default=True,
              help="Error budget, in (0, 1).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV path for the bound curve.")
@_friendly
def pac(k, alpha, epsilon, out):
    """Sample size guaranteeing the over-wide error stays under budget."""
    if k < 1:
        raise click.UsageError("K must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise click.UsageError("epsilon must lie strictly between 0 and 1")
    try:
        n0 = pac_sample_bound(k, alpha, epsilon)
    except ValueError as exc:  # K and epsilon were vetted above
        raise click.BadParameter(str(exc), param_hint="--alpha")
    # the bound needs n > alpha
    ns = range(math.floor(alpha) + 1, n0 + 5)
    rows = list(zip(ns, pac_errors(k, ns, alpha)))
    lines = [f"K={k} alpha={alpha:g} epsilon={epsilon:g} -> n0={n0}",
             "smallest n at which the worst-case posterior error on "
             "over-wide hypotheses drops below the budget",
             *(f"  n={n:<4d} bound={bound:.3e}{' <- n0' if n == n0 else ''}"
               for n, bound in rows)]
    if out:  # before any printing, so an unwritable path prints only its error
        _write_csv(out, ["n", "error_bound"],
                   ([n, f"{bound:.9e}"] for n, bound in rows))
        lines.append(f"wrote {out}")
    _echo_lines(lines)


# --- converge ----------------------------------------------------------


@main.command()
@click.argument("evidence", type=click.Path(exists=True, dir_okay=False))
@click.option("--slack", type=click.IntRange(min=0), default=1,
              show_default=True,
              help="Unexemplified cells kept in the hypothesis space.")
@_lam_option
@_alpha_option
@click.option("--threshold", default=0.99, show_default=True,
              help="Posterior level counted as identification.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV path for the posterior trace.")
@_friendly
def converge(evidence, slack, lam, alpha, threshold, out):
    """Posterior of the exact-evidence hypothesis along the stream.

    Individuals arrive in first-appearance order; after each one the
    hypothesis matching everything seen so far is re-priced.
    """
    if not 0.0 < threshold <= 1.0:
        raise click.BadParameter("must lie in (0, 1]", param_hint="--threshold")
    params = _make_params(lam, alpha)
    ev, _ = load_evidence(evidence)
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    kinds = list(sl.entity_kinds.values())
    if not kinds:
        raise click.ClickException(f"{evidence}: no individuals to trace")
    report = check_convergence(kinds, sl.big_k, params, threshold)
    reached = (f"reached {threshold:g} at n={report.reached_at}"
               if report.reached_at is not None
               else f"did not reach {threshold:g}")
    lines = ["  n=%-4d kinds_seen=%-3d posterior=%.6f" % pt
             for pt in report.points]
    lines.append(f"{reached}; final posterior {report.final_posterior:.6f}; "
                 f"monotone tail: {report.eventually_monotone}")
    if out:
        _write_csv(out, ["n", "kinds_seen", "posterior"],
                   ([pt.n, pt.c_seen, f"{pt.posterior:.9f}"]
                    for pt in report.points))
        lines.append(f"wrote {out}")
    _echo_lines(lines)


if __name__ == "__main__":
    main()
