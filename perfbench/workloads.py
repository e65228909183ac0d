"""The three benchmark workloads: their inputs, commands and output checks.

Every workload runs all six commands once per pass, in the same order, so
each reports every end-to-end metric; the inputs decide which layers do
the work.

* ``corpus``: the bundled seven stories through the README commands.
  Alphabets are small (about 20 distinct statements), repeats are many and
  K is 5 to 7, so it shows what a large-input optimisation costs on the
  traffic the tests and README serve.  The seed does not change it.
* ``wide-alphabet``: a generated stream of 3,200 statements, 1,600 of them
  distinct, over 400 individuals in 8 kinds.  The adaptive coder models and the name
  dictionary do nearly all the work; K stays at 9, and ``lossy`` runs on a
  small probe file, so the hypothesis-space layers do almost none.
* ``hypothesis-space``: small evidence whose cost grows with K rather than
  with stream size (K=11 for ``analyze``, K=8 for ``lossy``, K=80 over
  1,000 individuals for ``converge``, and ``pac 60``).  The sublang,
  measures, lossy and inductive layers do the work; the coder sees a
  480-statement file.

Each check returns the numbers a command reported, read from the files it
wrote and its standard output, and raises CheckFailed when an invariant
that holds for any seed is broken.  The numbers are compared with the
stored reference when one exists for the seed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import StreamSpec, generate


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass
class Op:
    """One CLI invocation; ``{out}`` in an argument is the pass directory."""

    label: str
    command: str
    args: list[str]
    check: Callable[[Path, str], dict]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    lossy_input: tuple[Path, int]   # evidence and slack of the lossy command
    params: dict                    # generator parameters, for provenance


# --- independent reference computations -------------------------------------

_LINE = re.compile(r"^\s*(!?)\s*([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*)\s*"
                   r"(?:,\s*([A-Za-z_]\w*)\s*)?\)\s*$")


def normalized_text(raw: str) -> bytes:
    """Canonical image of an evidence file: comments and blanks dropped,
    one ``[!]Pred(a[, b])`` per line, stream order kept."""
    out = []
    for line in raw.splitlines():
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        m = _LINE.match(body)
        if m is None:
            raise CheckFailed(f"unparsable evidence line {line!r}")
        neg, pred, subj, obj = m.groups()
        args = subj if obj is None else f"{subj}, {obj}"
        out.append(f"{neg}{pred}({args})")
    return ("\n".join(out) + "\n").encode() if out else b""


def pac_odds(k: int, n: int) -> float:
    """Worst-case posterior odds against the exact-evidence hypothesis
    after n observations, with no prior sample-size weight."""
    return max(math.fsum(math.comb(k - c, i) * (c / (c + i)) ** n
                         for i in range(1, k - c + 1))
               for c in range(k))


# --- checks -----------------------------------------------------------------


def _analyze_check(kinds: dict[str, int] | None, slack: int):
    def check(out: Path, stdout: str) -> dict:
        found = {}
        for path in sorted((out / "analyze").glob("*.json")):
            rec = json.loads(path.read_text())
            ce = rec["cont_entropy"]
            norm = ce["normalized"]
            members = ce["members"]
            evidence = rec["evidence"]
            if norm["sign"] < 0:
                raise CheckFailed(f"{path.stem}: negative normalized entropy")
            if norm["sign"] > 0 and (10.0 ** norm["log10_mag"]
                                     > (1.0 - 1.0 / members) * (1 + 1e-12)):
                raise CheckFailed(f"{path.stem}: normalized entropy above 1-1/M")
            c = evidence["kinds_observed"]
            if kinds is not None and c != kinds[path.stem]:
                raise CheckFailed(f"{path.stem}: {c} kinds, generator made "
                                  f"{kinds[path.stem]}")
            if evidence["big_k"] != c + slack:
                raise CheckFailed(f"{path.stem}: K={evidence['big_k']} for "
                                  f"c={c} and slack {slack}")
            found[path.stem] = {
                "normalized_log10": norm["log10_mag"],
                "inf_entropy_bits": rec["inf_entropy_bits"],
                "members": members, "kinds": c, "big_k": evidence["big_k"]}
        if not found:
            raise CheckFailed("analyze wrote no reports")
        return found
    return check


def _compress_check(containers: list[str]):
    def check(out: Path, stdout: str) -> dict:
        sizes = {}
        for name in containers:
            blob = (out / name).read_bytes()
            report = json.loads(
                (out / name).with_suffix(".report.json").read_text())
            if report["semantic_bits"] != 8 * len(blob):
                raise CheckFailed(f"{name}: report says "
                                  f"{report['semantic_bits']} bits, file has "
                                  f"{8 * len(blob)}")
            sizes[name] = len(blob)
        return {"container_bytes": sum(sizes.values()), "files": sizes}
    return check


def _decompress_check(target: str, expected: bytes):
    def check(out: Path, stdout: str) -> dict:
        if (out / target).read_bytes() != expected:
            raise CheckFailed(f"{target}: decoded stream differs from input")
        return {"statements": expected.count(b"\n")}
    return check


def _lossy_check(target: str):
    def check(out: Path, stdout: str) -> dict:
        with open(out / target, newline="") as fh:
            rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
        if not rows:
            raise CheckFailed("empty frontier")
        for prev, cur in zip(rows, rows[1:]):
            if cur[1] < prev[1] or cur[2] < prev[2]:
                raise CheckFailed(f"frontier not monotone at beta={cur[0]:g}")
        if any(not -1e-9 <= row[3] <= 1 + 1e-9 for row in rows):
            raise CheckFailed("relative informativeness outside [0, 1]")
        return {"frontier": rows}
    return check


_REACHED = re.compile(r"reached \S+ at n=(\d+)")


def _converge_check(target: str, individuals: int | None, kinds: int | None):
    def check(out: Path, stdout: str) -> dict:
        with open(out / target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        post = [float(r[2]) for r in rows]
        seen = [int(r[1]) for r in rows]
        if individuals is not None and len(rows) != individuals:
            raise CheckFailed(f"{len(rows)} trace points for {individuals} "
                              "individuals")
        if kinds is not None and seen[-1] != kinds:
            raise CheckFailed(f"trace saw {seen[-1]} kinds, generator made "
                              f"{kinds}")
        if any(not 0.0 <= p <= 1.0 for p in post):
            raise CheckFailed("posterior outside [0, 1]")
        reached = _REACHED.search(stdout)
        return {"points": len(rows), "kinds_seen": seen[-1],
                "final_posterior": post[-1], "posterior_sum": math.fsum(post),
                "reached_at": int(reached.group(1)) if reached else None}
    return check


_N0 = re.compile(r"-> n0=(\d+)")


def _pac_check(target: str, k: int, epsilon: float):
    def check(out: Path, stdout: str) -> dict:
        m = _N0.search(stdout)
        if m is None:
            raise CheckFailed("pac printed no n0")
        n0 = int(m.group(1))
        limit = epsilon / (1.0 - epsilon)
        if pac_odds(k, n0) > limit:
            raise CheckFailed(f"n0={n0} misses the odds bound")
        if n0 > 1 and pac_odds(k, n0 - 1) <= limit:
            raise CheckFailed(f"n0-1={n0 - 1} already meets the odds bound")
        with open(out / target, newline="") as fh:
            bounds = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        return {"n0": n0, "bound_at_n0": bounds[n0 - 1]}
    return check


# --- workloads ---------------------------------------------------------------

WORKLOADS = ("corpus", "wide-alphabet", "hypothesis-space")


@dataclass(frozen=True)
class Shape:
    """A generated workload's files and which command reads which.

    ``analyze``, ``compress`` and ``decompress`` read ``coded``; ``lossy``
    and ``converge`` name a file and the slack cells they add; ``pac``
    takes K alone."""

    files: dict[str, StreamSpec]
    coded: str
    analyze_slack: int
    lossy: tuple[str, int]
    converge: tuple[str, int]
    pac_k: int

    def as_json(self) -> dict:
        return {"files": {k: v.as_json() for k, v in self.files.items()},
                "coded": self.coded, "analyze_slack": self.analyze_slack,
                "lossy": list(self.lossy), "converge": list(self.converge),
                "pac_k": self.pac_k}


FULL = {
    "wide-alphabet": Shape(
        files={"stream": StreamSpec(entities=400, kinds=8, facts=4,
                                    statements=3200, predicates=12),
               "probe": StreamSpec(entities=12, kinds=3, facts=2,
                                   statements=40, predicates=4)},
        coded="stream", analyze_slack=1, lossy=("probe", 2),
        converge=("stream", 1), pac_k=9),
    "hypothesis-space": Shape(
        files={"cells": StreamSpec(entities=80, kinds=4, facts=3,
                                   statements=480, predicates=6),
               "crowd": StreamSpec(entities=1000, kinds=64, facts=2,
                                   statements=2000, predicates=8)},
        coded="cells", analyze_slack=7, lossy=("cells", 4),
        converge=("crowd", 16), pac_k=60),
}

# the same commands at a size that finishes in about a second
TINY = {
    "wide-alphabet": Shape(
        files={"stream": StreamSpec(entities=40, kinds=8, facts=2,
                                    statements=120, predicates=6),
               "probe": StreamSpec(entities=6, kinds=2, facts=1,
                                   statements=10, predicates=2)},
        coded="stream", analyze_slack=1, lossy=("probe", 1),
        converge=("stream", 1), pac_k=5),
    "hypothesis-space": Shape(
        files={"cells": StreamSpec(entities=10, kinds=3, facts=2,
                                   statements=30, predicates=4),
               "crowd": StreamSpec(entities=100, kinds=16, facts=2,
                                   statements=200, predicates=6)},
        coded="cells", analyze_slack=2, lossy=("cells", 2),
        converge=("crowd", 4), pac_k=9),
}


def _corpus(root: Path) -> Workload:
    data = root / "data" / "stories"
    manifest = json.loads((data / "manifest.json").read_text())["stories"]
    ids = [entry["id"] for entry in manifest]
    ops = [Op("analyze", "analyze",
              ["analyze", str(data), "--out", "{out}/analyze"],
              _analyze_check(None, 1)),
           Op("compress", "compress",
              ["compress", str(data), "--out", "{out}/packed"],
              _compress_check([f"packed/{i}.semc" for i in ids]))]
    for entry in manifest:
        i = entry["id"]
        expected = normalized_text((data / entry["evidence"]).read_text())
        ops.append(Op(f"decompress:{i}", "decompress",
                      ["decompress", f"{{out}}/packed/{i}.semc",
                       "--out", f"{{out}}/{i}.fol"],
                      _decompress_check(f"{i}.fol", expected)))
    ops.append(Op("lossy", "lossy",
                  ["lossy", str(data / "story1.fol"),
                   "--out", "{out}/story1.rd.csv"],
                  _lossy_check("story1.rd.csv")))
    for entry in manifest:
        i = entry["id"]
        ops.append(Op(f"converge:{i}", "converge",
                      ["converge", str(data / entry["evidence"]),
                       "--out", f"{{out}}/{i}.trace.csv"],
                      _converge_check(f"{i}.trace.csv", None, None)))
    ops.append(Op("pac", "pac",
                  ["pac", "3", "--epsilon", "0.01", "--out", "{out}/pac.csv"],
                  _pac_check("pac.csv", 3, 0.01)))
    return Workload("corpus", ops, (data / "story1.fol", 3),
                    {"data": "data/stories"})


def _generated(name: str, seed: int, inputs: Path, shape: Shape) -> Workload:
    inputs.mkdir(parents=True, exist_ok=True)
    texts, path = {}, {}
    for label, spec in shape.files.items():
        texts[label] = generate(spec, seed)
        path[label] = inputs / f"{label}.fol"
        path[label].write_bytes(texts[label])
    coded = shape.coded
    lossy_file, lossy_slack = shape.lossy
    crowd, converge_slack = shape.converge
    ops = [
        Op("analyze", "analyze",
           ["analyze", str(path[coded]), "--slack", str(shape.analyze_slack),
            "--out", "{out}/analyze"],
           _analyze_check({coded: shape.files[coded].kinds},
                          shape.analyze_slack)),
        Op("compress", "compress",
           ["compress", str(path[coded]), "--out", f"{{out}}/{coded}.semc"],
           _compress_check([f"{coded}.semc"])),
        Op("decompress", "decompress",
           ["decompress", f"{{out}}/{coded}.semc",
            "--out", f"{{out}}/{coded}.fol"],
           _decompress_check(f"{coded}.fol", texts[coded])),
        Op("lossy", "lossy",
           ["lossy", str(path[lossy_file]), "--slack", str(lossy_slack),
            "--out", "{out}/lossy.rd.csv"],
           _lossy_check("lossy.rd.csv")),
        Op("converge", "converge",
           ["converge", str(path[crowd]), "--slack", str(converge_slack),
            "--out", "{out}/trace.csv"],
           _converge_check("trace.csv", shape.files[crowd].entities,
                           shape.files[crowd].kinds)),
        Op("pac", "pac", ["pac", str(shape.pac_k), "--out", "{out}/pac.csv"],
           _pac_check("pac.csv", shape.pac_k, 1e-3)),
    ]
    return Workload(name, ops, (path[lossy_file], lossy_slack),
                    shape.as_json())


def build(name: str, seed: int, root: Path, inputs: Path,
          tiny: bool = False) -> Workload:
    """Generate the workload's inputs under ``inputs`` and list its commands."""
    if name == "corpus":
        return _corpus(root)
    if name in FULL:
        return _generated(name, seed, inputs, (TINY if tiny else FULL)[name])
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# --- reference comparison ----------------------------------------------------


def mismatch(got, want, path: str = "") -> str | None:
    """First difference between reported and stored numbers, or None.
    Floats agree within 1e-9 relative; everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            diff = mismatch(got[key], want[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = mismatch(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not math.isclose(
                got, want, rel_tol=1e-9, abs_tol=1e-300):
            return f"{path}: {got!r} != {want!r}"
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"
