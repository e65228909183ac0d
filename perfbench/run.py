#!/usr/bin/env python3
"""End-to-end benchmark of the ``semcomm`` command line, run in-process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each pass runs the workload's
commands once, in order, with outputs in a work directory and standard
output captured; passes repeat until ``--seconds`` have elapsed.  The
program's own thread pools stay as they are; the harness adds no threads
or processes apart from the short-lived interpreters that time
``setup_s``, the cold ``import semcomm.cli`` every CLI call pays.

Times are reported in reference seconds.  Other tenants of a shared
machine change its speed by 20% or more, in bursts of seconds and in
drifts over minutes, and pure-Python code slows with it in step.  So every
command, and every set-up import, is bracketed by a fixed pure-Python
calibration computation that shares no code with the program, and its wall
time is divided by the mean calibration time around it and multiplied by
``CAL_REF_S``: it reads as seconds on a machine that runs the calibration
in ``CAL_REF_S``.  The raw wall times are kept in the result file.

``--trace 0`` reports the end-to-end metrics: the median over passes of
each command's time (all of the workload's inputs for that command) and of
the set-up time, ``container_bytes`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced passes with passes in which the program's public
functions are wrapped (see layers.py) and reports the per-layer metrics in
wall seconds, the coder-kernel and serial-sweep baselines, and the tracing
overhead.

Every command's output is checked; a command that raises, exits nonzero,
runs past its time limit or fails its check counts as failed.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give each
metric with its unit and sample count, and the error rate.  A JSON result
with provenance and every sample, and the spans of a traced run, go to
``.bench_out/`` in the checkout.  ``--workload all`` runs the three
workloads in turn.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

COMMANDS = ("analyze", "compress", "decompress", "lossy", "converge", "pac")
CAL_SAMPLES = 3
CAL_REF_S = 0.0025
OP_TIME_LIMIT_S = 120.0
KERNEL_SYMBOLS = 40_000
KERNEL_REPEATS = 3


def _import_program() -> None:
    if not (SRC / "semcomm" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import semcomm
    if Path(semcomm.__file__).resolve().parent != SRC / "semcomm":
        print(f"benchmark: imported semcomm from {semcomm.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


# --- provenance --------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(workload, seed: int) -> dict:
    import numpy
    from semcomm.coder import get_backend_name
    return {
        "workload": workload.name, "seed": seed,
        "generator": workload.params,
        "backend": get_backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "cal_ref_s": CAL_REF_S,
    }


# --- clocks ------------------------------------------------------------------

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import semcomm.cli; "
                 "print(time.perf_counter() - t)")


def setup_time() -> float:
    """Cold ``import semcomm.cli`` in a fresh interpreter, reading the
    byte-code cache as an installed program would."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SEMCOMM_LOG", "PYTHONDONTWRITEBYTECODE")}
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60, check=True)
    return float(done.stdout.strip())


def calibration_time() -> float:
    """Wall time of a fixed pure-Python computation that shares no code
    with the program: dictionary and tuple traffic, float arithmetic and
    calls, the mix the commands spend their time on.  The fastest of
    CAL_SAMPLES runs."""
    best = float("inf")
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        counts: dict[tuple, int] = {}
        x = 0.3
        for i in range(2000):
            key = (i * 7919) % 1021, i & 7
            counts[key] = counts.get(key, 0) + 1
            x = 3.7 * x * (1.0 - x)
        sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Converts wall times to reference seconds, calibrating between steps."""

    def __init__(self) -> None:
        self.last = calibration_time()

    def scale(self, elapsed: float) -> float:
        after = calibration_time()
        scaled = elapsed * CAL_REF_S / (0.5 * (self.last + after))
        self.last = after
        return scaled


# --- one pass ----------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)


def run_op(op, outdir: Path, tally: Tally, reference: dict | None,
           tracer=None) -> tuple[float, dict | None]:
    """Run one command in-process; returns its wall time and what it reported."""
    from semcomm.cli import main
    from workloads import CheckFailed, mismatch

    args = [a.replace("{out}", str(outdir)) for a in op.args]
    tally.attempted += 1
    gc.collect()
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                main.main(args=args, standalone_mode=False)
            else:
                with tracer.span(f"cli.{op.command}"):
                    main.main(args=args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit status {exc.code}"
    except Exception as exc:  # any failure of the program is a failed op
        error = "".join(traceback.format_exception_only(exc)).strip()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close_command()
    if error is None and elapsed > OP_TIME_LIMIT_S:
        error = f"took {elapsed:.1f} s, limit {OP_TIME_LIMIT_S:.0f} s"
    if error is not None:
        tally.fail(op.label, error)
        return elapsed, None
    try:
        found = op.check(outdir, buf.getvalue())
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        tally.fail(op.label, f"output check: {exc!r}")
        return elapsed, None
    if reference is not None and op.label in reference:
        diff = mismatch(found, reference[op.label])
        if diff:
            tally.fail(op.label, f"differs from the stored reference {diff}")
            return elapsed, None
    return elapsed, found


def run_pass(workload, passdir: Path, tally: Tally, reference,
             clock: Clock | None = None, tracer=None):
    """One pass.  Returns each command's summed wall time, the same in
    reference seconds when a clock is given, and what every op reported."""
    shutil.rmtree(passdir, ignore_errors=True)
    passdir.mkdir(parents=True)
    wall = dict.fromkeys(COMMANDS, 0.0)
    scaled = dict.fromkeys(COMMANDS, 0.0)
    reported = {}
    for op in workload.ops:
        elapsed, found = run_op(op, passdir, tally, reference, tracer)
        wall[op.command] += elapsed
        if clock is not None:
            scaled[op.command] += clock.scale(elapsed)
        reported[op.label] = found
    return wall, scaled, reported


# --- traced-run extras ---------------------------------------------------------


def _kernel_blocks(n_symbols: int, seed: int):
    """Mixed adaptive blocks: small and large alphabets, skewed and flat."""
    rnd = random.Random(f"kernel:{seed}")
    blocks = []
    remaining = n_symbols
    while remaining > 0:
        k = rnd.choice((4, 16, 64, 256))
        size = min(remaining, rnd.randint(200, 2000))
        if rnd.random() < 0.5:
            hot = rnd.randrange(k)
            symbols = [hot if rnd.random() < 0.7 else rnd.randrange(k)
                       for _ in range(size)]
        else:
            symbols = [rnd.randrange(k) for _ in range(size)]
        blocks.append((k, symbols))
        remaining -= size
    return blocks


def kernel_bench(seed: int, tally: Tally) -> dict:
    """Encode and decode the mixed-block workload with every importable
    backend; streams must be bit-identical across backends."""
    from semcomm.coder import get_backend_name

    blocks = _kernel_blocks(KERNEL_SYMBOLS, seed)
    results = {}
    streams = {}
    for module in ("semcomm._coder_py", "semcomm._coder_cy"):
        try:
            impl = importlib.import_module(module)
        except ImportError:
            continue
        enc_t, dec_t = [], []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            enc = impl.RangeEncoder()
            for k, symbols in blocks:
                impl.encode_block_adaptive(symbols, k, enc)
            blob = enc.finish()
            enc_t.append(time.perf_counter() - start)
            start = time.perf_counter()
            dec = impl.RangeDecoder(blob)
            decoded = [impl.decode_block_adaptive(len(s), k, dec)
                       for k, s in blocks]
            dec_t.append(time.perf_counter() - start)
        if decoded != [s for _, s in blocks]:
            tally.fail(f"kernel:{impl.BACKEND}", "decode differs from input")
        streams[impl.BACKEND] = blob
        results[impl.BACKEND] = {"encode_s": statistics.median(enc_t),
                                 "decode_s": statistics.median(dec_t)}
    if len(set(streams.values())) > 1:
        tally.fail("kernel", "backends emitted different streams")
    active = get_backend_name()
    if active not in results:
        tally.fail("kernel", f"active backend {active!r} did not import")
        return {"backends": results}
    return {"backends": results, "active": active,
            "coder.kernel_encode_s": results[active]["encode_s"],
            "coder.kernel_decode_s": results[active]["decode_s"]}


def serial_sweep(workload, tally: Tally) -> tuple[float, list]:
    """Single-threaded BA sweep: ``lossy_optimize`` with d_star=0 over the
    lossy command's grid and inputs.  Returns the sweep's self time."""
    from semcomm import lossy
    from semcomm.dataset import load_evidence
    from semcomm.inductive import InductiveModel, InductiveParams
    from semcomm.measures import MessagePartition
    from semcomm.sublang import SubLanguageConfig, build_sublanguage

    from layers import PROBES
    from spans import Tracer, instrument, self_times

    path, slack = workload.lossy_input
    params = InductiveParams()
    ev, _ = load_evidence(path)
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    model = InductiveModel(sl, params)
    source = MessagePartition.from_model(model)
    receiver = lossy.receiver_prior(sl, params)
    alphabet = lossy.candidate_reconstructions(model)
    tracer = Tracer()
    gc.collect()
    with instrument(tracer, PROBES):
        with tracer.span("bench.serial_sweep"):
            # looked up on the module, where the probe is installed
            point = lossy.lossy_optimize(source, alphabet,
                                         lossy.LossyConfig(d_star=0.0), receiver)
    spans, _, _ = tracer.take()
    if not (point.rate_bits >= 0.0 and point.cont_info >= 0.0):
        tally.fail("serial_sweep", f"bad point {point.as_json()}")
    own = self_times(spans)
    return (sum(own[s.id] for s in spans if s.name == "lossy.lossy_optimize"),
            spans)


# --- runs --------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _time_left(deadline: float, pass_times: list[float]) -> bool:
    """Whether another pass, as long as the typical one so far, still ends
    before the deadline."""
    return time.perf_counter() + _median(pass_times) <= deadline


def _load_reference(workload, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text()).get(workload.name, {})
    return table.get("any", table.get(str(seed)))


def run_untraced(workload, seconds: float, work: Path, tally: Tally,
                 reference) -> tuple[dict, dict, dict]:
    # the first import writes the byte-code cache every later one reads;
    # one import per pass spreads the set-up samples over the whole run
    setup_time()
    names = ["setup_s"] + [f"{command}_s" for command in COMMANDS]
    samples = {name: [] for name in names + ["container_bytes"]}
    raw = {name: [] for name in names}
    reported = {}
    pass_times: list[float] = []
    deadline = time.perf_counter() + seconds
    while not pass_times or _time_left(deadline, pass_times):
        start = time.perf_counter()
        clock = Clock()
        setup = setup_time()
        raw["setup_s"].append(setup)
        samples["setup_s"].append(clock.scale(setup))
        wall, scaled, reported = run_pass(workload, work / "pass", tally,
                                          reference, clock)
        pass_times.append(time.perf_counter() - start)
        for command in COMMANDS:
            raw[f"{command}_s"].append(wall[command])
            samples[f"{command}_s"].append(scaled[command])
        samples["container_bytes"].append(sum(
            (found or {}).get("container_bytes", 0)
            for found in reported.values()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples["peak_rss_mb"] = [peak_kb / 1024.0]
    metrics = {name: _median(values) for name, values in samples.items()}
    return metrics, samples, {"reported": reported, "raw_wall_s": raw}


def _guarded(label: str, tally: Tally, fn, *args):
    """Run a harness baseline; a failure counts and yields None."""
    tally.attempted += 1
    try:
        return fn(*args)
    except Exception as exc:  # any failure of the program is a failed op
        tally.fail(label, "".join(traceback.format_exception_only(exc)).strip())
        return None


def run_traced(workload, seconds: float, seed: int, work: Path, tally: Tally,
               reference) -> tuple[dict, dict, dict]:
    from layers import PROBES, by_command, pass_metrics, shares
    from spans import Tracer, instrument

    tracer = Tracer()
    plain, traced = [], []
    layer_samples: dict[str, list] = {}
    command_samples: dict[str, dict[str, list]] = {}
    all_spans = []
    missing: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or _time_left(
            deadline, [a + b for a, b in zip(plain, traced)]):
        start = time.perf_counter()
        run_pass(workload, work / "pass", tally, reference)
        plain.append(time.perf_counter() - start)
        with instrument(tracer, PROBES) as missing:
            start = time.perf_counter()
            run_pass(workload, work / "pass", tally, reference, tracer=tracer)
            traced.append(time.perf_counter() - start)
        spans, counts, maxima = tracer.take()
        for name, value in pass_metrics(spans, counts, maxima).items():
            layer_samples.setdefault(name, []).append(value)
        for command, values in by_command(spans).items():
            for name, value in values.items():
                command_samples.setdefault(command, {}).setdefault(
                    name, []).append(value)
        all_spans.append([s.as_json(spans[0].start if spans else 0.0)
                          for s in spans])

    kernel = _guarded("kernel", tally, kernel_bench, seed, tally) or {}
    for name in ("coder.kernel_encode_s", "coder.kernel_decode_s"):
        layer_samples[name] = [kernel.get(name, 0.0)]
    serial, serial_spans = (_guarded("serial_sweep", tally, serial_sweep,
                                     workload, tally) or (0.0, []))
    layer_samples["lossy.serial_sweep_s"] = [serial]
    layer_samples["trace.overhead_pct"] = [
        100.0 * (min(traced) / min(plain) - 1.0)]
    metrics = {name: _median(values) for name, values in layer_samples.items()}
    commands = {command: {name: _median(v) for name, v in values.items()}
                for command, values in command_samples.items()}
    extra = {"kernel": kernel, "missing_probes": missing,
             "by_command": commands, "shares": shares(commands),
             "pass_wall_s": {"untraced": plain, "traced": traced},
             "spans": all_spans,
             "serial_sweep_spans": [s.as_json(serial_spans[0].start)
                                    for s in serial_spans]}
    return metrics, layer_samples, extra


UNITS = {"container_bytes": "bytes", "peak_rss_mb": "MB"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, write_reference: bool = False) -> dict:
    """Run one workload; returns the full record, result line included."""
    from layers import unit_of
    from workloads import build

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        workload = build(name, seed, ROOT, work / "inputs", tiny=tiny)
        reference = None if tiny or write_reference \
            else _load_reference(workload, seed)
        if trace:
            metrics, samples, extra = run_traced(
                workload, seconds, seed, work, tally, reference)
        else:
            metrics, samples, extra = run_untraced(
                workload, seconds, work, tally, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = extra.pop("reported", None)
    unit = unit_of if trace else (lambda m: UNITS.get(m, "s"))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": unit(m)}
                    for m, v in metrics.items()},
    }
    if write_reference and reported is not None and tally.failed == 0:
        _store_reference(workload, seed, reported)
    return {"provenance": provenance(workload, seed),
            "result": result,
            "error_rate": tally.failed / max(tally.attempted, 1),
            "errors": tally.errors,
            "samples": samples, **extra}


def _store_reference(workload, seed: int, reported: dict) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = "any" if workload.name == "corpus" else str(seed)
    table.setdefault(workload.name, {})[key] = reported
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def print_table(record: dict) -> None:
    prov = record["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"backend {prov['backend']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  nproc {prov['nproc']}  "
          f"commit {prov['git_commit'][:12]}")
    raw = record.get("raw_wall_s", {})
    print(f"  {'metric':<28}{'median':>14}{'wall median':>14}  {'unit':<6}"
          f"{'samples':>8}")
    for name, metric in record["result"]["metrics"].items():
        n = len(record["samples"].get(name, [])) or 1
        wall = f"{_median(raw[name]):>14.6g}" if name in raw else " " * 14
        print(f"  {name:<28}{metric['value']:>14.6g}{wall}  "
              f"{metric['unit']:<6}{n:>8}")
    print(f"  {'error_rate':<28}{record['error_rate']:>14.6g}{'':>14}  "
          f"{'ratio':<6}{record['result']['attempted']:>8}")
    for command, share in record.get("shares", {}).items():
        print(f"  share of {command}_s in its dominant layers: {share:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="corpus, wide-alphabet, hypothesis-space or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's reported numbers as the "
                             "reference (untraced runs only)")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    os.environ.pop("SEMCOMM_LOG", None)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              write_reference=args.write_reference)
        stem = f"{name}_seed{args.seed}_trace{args.trace}"
        spans = {key: record.pop(key) for key in ("spans", "serial_sweep_spans")
                 if key in record}
        if spans:
            (OUT / f"SPANS_{stem}.json").write_text(json.dumps(spans) + "\n")
        (OUT / f"BENCH_{stem}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        print_table(record)
        results[name] = record["result"]

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
