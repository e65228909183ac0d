"""Semantic information measures and semantic compression.

The package prices logically structured evidence with an inductive
posterior over hypothesis cells, measures sentence content against that
posterior, and uses the resulting distributions for lossless and lossy
coding of statement streams.
"""

from .errors import (ArityConflictError, CapacityError, DecodeError,
                     DomainMismatchError, InconsistentEvidenceError,
                     InfeasibleTargetError, SemcommError, StatementParseError)
from .fol import AtomicStatement, EvidenceSet, parse_evidence, parse_triple_list
from .inductive import (InductiveModel, InductiveParams, check_convergence,
                        constituent_likelihood, constituent_posterior,
                        constituent_prior, pac_error, pac_errors,
                        pac_sample_bound, predictive_probability)
from .lossless import (LosslessReport, gzip_bits, lossless_decode,
                       lossless_encode_report, shannon_baseline)
from .measures import (JointMessageDistribution, MessagePartition,
                       UniverseSignature, cond_cont, cond_cont_entropy, cont,
                       cont_entropy, cont_sentence, inf_entropy, inf_measure,
                       is_inductively_independent, is_l_exclusive,
                       mutual_cont_information, scale_entropies, transcont)
from .sublang import (Constituent, Sentence, SubLanguage, SubLanguageConfig,
                      build_sublanguage)
from .xreal import ExtremeReal, lse, xsum

__version__ = "0.1.0"

__all__ = [
    "ArityConflictError", "CapacityError", "Constituent", "DecodeError",
    "DomainMismatchError", "EvidenceSet", "ExtremeReal",
    "InconsistentEvidenceError", "InductiveModel", "InductiveParams",
    "AtomicStatement", "InfeasibleTargetError", "JointMessageDistribution",
    "LosslessReport",
    "LossyConfig", "MessagePartition", "RDPoint", "SemcommError", "Sentence",
    "StatementParseError", "SubLanguage", "SubLanguageConfig",
    "UniverseSignature", "build_sublanguage",
    "candidate_reconstructions",
    "check_convergence", "cond_cont", "cond_cont_entropy", "cont",
    "cont_entropy",
    "cont_sentence", "content_cap", "constituent_likelihood",
    "constituent_posterior", "constituent_prior",
    "gzip_bits", "inf_entropy", "inf_measure", "is_inductively_independent",
    "is_l_exclusive", "lossless_decode", "lossless_encode_report",
    "lossy_optimize", "lse", "mutual_cont_information", "pac_error",
    "pac_errors", "pac_sample_bound",
    "parse_evidence", "parse_triple_list", "payoff_matrix",
    "predictive_probability", "rd_sweep", "receiver_prior",
    "relative_informativeness", "scale_entropies", "shannon_baseline",
    "transcont", "xsum",
]


def __getattr__(name: str):
    # the names in __all__ not imported above are the lossy layer's, the one
    # user of numpy; they resolve on first use (PEP 562), so the other
    # commands start without importing numpy
    if name in __all__:
        from . import lossy
        return getattr(lossy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
