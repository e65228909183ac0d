"""Shared builders: deterministic random evidence and models."""

import io
import random
from pathlib import Path

import pytest

from semcomm.fol import AtomicStatement, EvidenceSet, parse_evidence
from semcomm.inductive import InductiveModel, InductiveParams
from semcomm.lossless import lossless_encode_report
from semcomm.sublang import SubLanguageConfig, build_sublanguage

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "stories"

_PREDS = ["Barks", "Hums", "Glows", "Spins", "Drips", "Folds", "Naps", "Digs"]
_ENTS = ["Ada", "Bo", "Cyr", "Dot", "Eli", "Fay", "Gus", "Hale", "Ivy", "Jo"]


def random_evidence_text(rng: random.Random, max_preds: int = 5,
                         max_ents: int = 8, max_stmts: int = 25) -> str:
    """Consistent random evidence: fixed arity per predicate, no clashes."""
    n_pred = rng.randint(1, max_preds)
    n_ent = rng.randint(1, max_ents)
    preds = _PREDS[:n_pred]
    ents = _ENTS[:n_ent]
    arity = {p: rng.choice((1, 2)) for p in preds}
    polarity: dict[tuple, bool] = {}
    lines = []
    for _ in range(rng.randint(1, max_stmts)):
        p = rng.choice(preds)
        subj = rng.choice(ents)
        if arity[p] == 2:
            obj = rng.choice(ents)
            key = (p, subj, obj)
            args = f"{subj}, {obj}"
        else:
            key = (p, subj)
            args = subj
        positive = polarity.setdefault(key, rng.random() < 0.7)
        lines.append(("" if positive else "!") + f"{p}({args})")
    return "\n".join(lines) + "\n"


def one_statement_container(pred: str, ent: str) -> bytes:
    """A container written from hand-built evidence, names unchecked."""
    ev = EvidenceSet((AtomicStatement(pred, ent, None),))
    return lossless_encode_report(ev)[0]


def random_model(rng: random.Random, slack: int | None = None,
                 params: InductiveParams | None = None) -> InductiveModel:
    text = random_evidence_text(rng)
    ev = parse_evidence(io.StringIO(text), source_id="random")
    if slack is None:
        slack = rng.randint(0, 3)
    sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
    return InductiveModel(sl, params or InductiveParams())


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
