"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Layer names follow the ``semcomm`` modules.  Times are seconds summed over
one pass of a workload; a ``*_self_s`` metric (and ``lossy.ba_s``,
``cli.self_s``) is self time, the span's duration minus its children.
"""

from __future__ import annotations

from spans import Probe, Span, Tracer, roots, self_times, total_time


def _statements(t: Tracer, args, kwargs, result) -> None:
    t.count("fol.statements", len(result.statements))


def _enumerated(t: Tracer, args, kwargs, result) -> None:
    t.count("sublang.constituents", len(result))


def _upset(t: Tracer, args, kwargs, result) -> None:
    t.count("sublang.constituents", len(result.constituents))


def _big_k(t: Tracer, args, kwargs, result) -> None:
    t.record_max("sublang.big_k", result.big_k)


def _members(t: Tracer, args, kwargs, result) -> None:
    t.count("measures.members", len(result.members))


def _alphabet(t: Tracer, args, kwargs, result) -> None:
    t.count("lossy.alphabet_size", len(result))


def _payoff_inputs(t: Tracer, args, kwargs, result) -> None:
    # the inputs stay alive for the whole command, so their ids are unique
    # within it; a matrix built twice from the same inputs was not needed
    t.distinct("lossy.payoff_inputs", tuple(id(a) for a in args))


def _frontier(t: Tracer, args, kwargs, result) -> None:
    t.count("lossy.frontier_points", len(result))


def _observations(t: Tracer, args, kwargs, result) -> None:
    t.count("inductive.observations", len(result.points))


def _overhead(t: Tracer, args, kwargs, result) -> None:
    report = result[1]
    t.count("lossless.overhead_bits", report.coded_block_bits
            - report.dictionary_bits_ideal - report.payload_bits_ideal)


def _encoded(t: Tracer, args, kwargs, result) -> None:
    t.count("coder.symbols", len(args[0]))


def _decoded(t: Tracer, args, kwargs, result) -> None:
    t.count("coder.symbols", len(result))


PROBES = [
    Probe("fol:parse_evidence", observe=_statements),
    Probe("fol:parse_triple_list", observe=_statements),
    Probe("dataset:load_evidence"),
    Probe("dataset:load_manifest"),
    Probe("sublang:build_sublanguage", observe=_big_k),
    Probe("sublang:enumerate_constituents", observe=_enumerated),
    Probe("sublang:SubLanguage.upset", observe=_upset),
    Probe("inductive:InductiveModel.__init__"),
    Probe("inductive:check_convergence", observe=_observations),
    Probe("inductive:pac_sample_bound"),
    Probe("inductive:pac_error", mode="outer"),
    Probe("measures:MessagePartition.from_model", observe=_members),
    Probe("measures:cont_entropy"),
    Probe("measures:inf_entropy"),
    Probe("measures:scale_entropies"),
    Probe("measures:transcont", mode="count"),
    Probe("xreal:ExtremeReal.__add__", mode="count"),
    Probe("xreal:ExtremeReal.__sub__", mode="count"),
    Probe("xreal:ExtremeReal.__mul__", mode="count"),
    Probe("xreal:ExtremeReal.__truediv__", mode="count"),
    Probe("xreal:xsum", mode="count"),
    Probe("xreal:lse", mode="count"),
    Probe("lossy:receiver_prior"),
    Probe("lossy:candidate_reconstructions", observe=_alphabet),
    Probe("lossy:payoff_matrix", observe=_payoff_inputs),
    Probe("lossy:content_cap"),
    Probe("lossy:rd_sweep", observe=_frontier),
    Probe("lossy:lossy_optimize"),
    Probe("lossless:lossless_encode_report", observe=_overhead),
    Probe("lossless:lossless_decode"),
    Probe("lossless:shannon_baseline"),
    Probe("lossless:gzip_bits"),
    Probe("coder:encode_block_adaptive", observe=_encoded),
    Probe("coder:decode_block_adaptive", observe=_decoded),
]

# metric -> span names whose outermost calls are summed
TOTAL = {
    "coder.encode_s": {"coder.encode_block_adaptive"},
    "coder.decode_s": {"coder.decode_block_adaptive"},
    "lossless.encode_s": {"lossless.lossless_encode_report"},
    "lossless.decode_s": {"lossless.lossless_decode"},
    "lossless.baseline_s": {"lossless.shannon_baseline", "lossless.gzip_bits"},
    "fol.parse_s": {"fol.parse_evidence", "fol.parse_triple_list"},
    "dataset.load_s": {"dataset.load_evidence", "dataset.load_manifest"},
    "sublang.build_s": {"sublang.build_sublanguage"},
    "sublang.enumerate_s": {"sublang.enumerate_constituents",
                            "sublang.SubLanguage.upset"},
    "measures.partition_s": {"measures.MessagePartition.from_model"},
    "measures.entropy_s": {"measures.cont_entropy", "measures.inf_entropy",
                           "measures.scale_entropies"},
    "lossy.alphabet_s": {"lossy.candidate_reconstructions"},
    "lossy.payoff_s": {"lossy.payoff_matrix"},
    "lossy.sweep_s": {"lossy.rd_sweep"},
    "inductive.model_s": {"inductive.InductiveModel.__init__"},
    "inductive.converge_s": {"inductive.check_convergence"},
    "inductive.pac_s": {"inductive.pac_sample_bound", "inductive.pac_error"},
}

# metric -> span names whose self times are summed
SELF = {
    "lossless.encode_self_s": {"lossless.lossless_encode_report"},
    "lossy.ba_s": {"lossy.rd_sweep"},
}

# metric -> counter names summed
COUNT = {
    "coder.symbols": ["coder.symbols"],
    "lossless.overhead_bits": ["lossless.overhead_bits"],
    "fol.statements": ["fol.statements"],
    "sublang.constituents": ["sublang.constituents"],
    "measures.members": ["measures.members"],
    "measures.transcont_calls": ["measures.transcont"],
    "lossy.alphabet_size": ["lossy.alphabet_size"],
    "lossy.payoff_calls": ["lossy.payoff_matrix"],
    "lossy.frontier_points": ["lossy.frontier_points"],
    "inductive.observations": ["inductive.observations"],
    "inductive.pac_error_calls": ["inductive.pac_error"],
    "xreal.ops": ["xreal.ExtremeReal.__add__", "xreal.ExtremeReal.__sub__",
                  "xreal.ExtremeReal.__mul__", "xreal.ExtremeReal.__truediv__",
                  "xreal.xsum", "xreal.lse"],
}

CLI_PREFIX = "cli."


def pass_metrics(spans: list[Span], counts, maxima) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out = {name: total_time(spans, names) for name, names in TOTAL.items()}
    own = self_times(spans)
    for name, names in SELF.items():
        out[name] = sum(own[s.id] for s in spans if s.name in names)
    out["cli.self_s"] = sum(own[s.id] for s in spans
                            if s.name.startswith(CLI_PREFIX))
    for name, keys in COUNT.items():
        out[name] = sum(counts.get(k, 0) for k in keys)
    out["sublang.big_k"] = maxima.get("sublang.big_k", 0)
    calls = counts.get("lossy.payoff_matrix", 0)
    out["lossy.payoff_yield"] = (counts.get("lossy.payoff_inputs", 0) / calls
                                 if calls else 0.0)
    return out


def by_command(spans: list[Span]) -> dict[str, dict]:
    """Time metrics of one traced pass split by the CLI command above them,
    with each command's own wall time as ``command_s``."""
    top = roots(spans)
    groups: dict[str, list[Span]] = {}
    for s in spans:
        root = top[s.id]
        if root.name.startswith(CLI_PREFIX):
            groups.setdefault(root.name[len(CLI_PREFIX):], []).append(s)
    out = {}
    for command, members in groups.items():
        metrics = {k: v for k, v in pass_metrics(members, {}, {}).items()
                   if k.endswith("_s") and v}
        metrics["command_s"] = sum(s.end - s.start for s in members
                                   if s.name == CLI_PREFIX + command)
        out[command] = metrics
    return out


def shares(commands: dict[str, dict]) -> dict[str, float]:
    """Share of a command's time spent in the layers meant to dominate it:
    the coder plus the dictionary for ``compress``, the payoff matrix plus
    the BA sweep for ``lossy``."""
    out = {}
    compress = commands.get("compress")
    if compress and compress["command_s"]:
        busy = sum(v for k, v in compress.items() if k.startswith("coder."))
        busy += compress.get("lossless.encode_self_s", 0.0)
        out["compress"] = busy / compress["command_s"]
    lossy = commands.get("lossy")
    if lossy and lossy["command_s"]:
        busy = lossy.get("lossy.payoff_s", 0.0) + lossy.get("lossy.ba_s", 0.0)
        out["lossy"] = busy / lossy["command_s"]
    return out


UNITS = {"coder.symbols": "count", "lossless.overhead_bits": "bits",
         "fol.statements": "count", "sublang.constituents": "count",
         "sublang.big_k": "count", "measures.members": "count",
         "measures.transcont_calls": "count", "lossy.alphabet_size": "count",
         "lossy.payoff_calls": "count", "lossy.payoff_yield": "ratio",
         "lossy.frontier_points": "count", "inductive.observations": "count",
         "inductive.pac_error_calls": "count", "xreal.ops": "count",
         "trace.overhead_pct": "%"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s")
