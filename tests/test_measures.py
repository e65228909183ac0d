"""Content and surprise measures: identities, bounds, brute-force oracles."""

import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.dataset import load_evidence, load_manifest
from semcomm.errors import DomainMismatchError
from semcomm.fol import parse_evidence
from semcomm.inductive import InductiveModel, InductiveParams, constituent_posterior
from semcomm.measures import (JointMessageDistribution,
                              MessagePartition, UniverseSignature, cond_cont,
                              cond_cont_entropy, cont, cont_entropy,
                              cont_sentence, inf_entropy, inf_measure,
                              is_inductively_independent, is_l_exclusive,
                              mutual_cont_information, scale_entropies,
                              transcont)
from semcomm.sublang import (EvidenceSummary, SubLanguageConfig,
                             build_sublanguage, enumerate_constituents)
from semcomm.xreal import ExtremeReal, xsum

from conftest import DATA_DIR, random_model


def _random_sentence(rnd, model):
    cons = list(enumerate_constituents(model.sublang))
    size = rnd.randint(1, len(cons))
    return model.sublang.sentence(rnd.sample(cons, size))


def test_point_measures():
    assert cont(0.25) == 0.75
    assert inf_measure(0.25) == 4.0
    assert cont(1.0) == 0.0
    assert inf_measure(0.0) == math.inf
    with pytest.raises(ValueError):
        inf_measure(-0.1)
    for p in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="p must lie"):
            cont(p)
    for counts in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            UniverseSignature(*counts)


def _prior_model(big_k):
    # empty evidence under alpha = 0: every hypothesis weighs 1 / (2^K - 1)
    ev = parse_evidence(io.StringIO("Runs(Wren)\n"))
    sl = build_sublanguage(ev, SubLanguageConfig(slack=big_k - 1))
    return InductiveModel(sl, InductiveParams(),
                          EvidenceSummary(0, 0, (), sl.big_k))


def test_inf_entropy_uniform():
    for big_k in (1, 2, 5, 12, 60, 1100):
        assert inf_entropy(_prior_model(big_k)) == pytest.approx(
            math.log2(2 ** big_k - 1), rel=1e-13)


def test_chain_identity_exact(rng):
    # two independently summed routes may differ by one final rounding only
    for _ in range(20):
        model = random_model(rng)
        for _ in range(50):
            s1 = _random_sentence(rng, model)
            s2 = _random_sentence(rng, model)
            lhs = cont_sentence(s2, model)
            rhs = cond_cont(s2, s1, model) + transcont(s2, s1, model)
            assert abs(lhs - rhs) <= 5e-16


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chain_identity_property(seed):
    rnd = random.Random(seed)
    model = random_model(rnd)
    s1 = _random_sentence(rnd, model)
    s2 = _random_sentence(rnd, model)
    lhs = cont_sentence(s2, model)
    rhs = cond_cont(s2, s1, model) + transcont(s2, s1, model)
    assert abs(lhs - rhs) <= 5e-16


def test_transcont_symmetric(rng):
    for _ in range(10):
        model = random_model(rng)
        for _ in range(20):
            s1 = _random_sentence(rng, model)
            s2 = _random_sentence(rng, model)
            assert transcont(s1, s2, model) == transcont(s2, s1, model)


def test_tautology_has_no_content(rng):
    model = random_model(rng)
    taut = model.sublang.upset(())
    assert cont_sentence(taut, model) == 0.0
    assert transcont(taut, taut, model) == 0.0


def test_l_exclusive():
    rnd = random.Random(5)
    model = random_model(rnd, slack=2)
    cons = list(enumerate_constituents(model.sublang))
    a = model.sublang.sentence(cons[:1])
    b = model.sublang.sentence(cons[1:2])
    both = model.sublang.sentence(cons[:2])
    assert is_l_exclusive(a, b)
    assert not is_l_exclusive(a, both)
    other = random_model(rnd, slack=2).sublang
    with pytest.raises(DomainMismatchError, match="different sub-languages"):
        is_l_exclusive(a, other.sentence(enumerate_constituents(other)[:1]))


def test_exclusive_contents_add(rng):
    # cont of a disjunction of exclusive sentences: contents add minus 1
    for _ in range(10):
        model = random_model(rng)
        cons = list(enumerate_constituents(model.sublang))
        if len(cons) < 2:
            continue
        k = rng.randint(1, len(cons) - 1)
        a = model.sublang.sentence(cons[:k])
        b = model.sublang.sentence(cons[k:])
        lhs = cont_sentence(model.sublang.sentence(cons), model)
        rhs = cont_sentence(a, model) + cont_sentence(b, model) - 1.0
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_partition_from_model_normalizes(rng):
    for _ in range(10):
        model = random_model(rng)
        part = MessagePartition.from_model(model)
        assert math.fsum(part.probs) == pytest.approx(1.0, abs=1e-9)
        assert len(part.members) == 2 ** (model.big_k - model.summary.c)
        # the members are the hypotheses holding every observed kind, in
        # enumeration order; each one left out has posterior exactly zero
        need = set(range(model.summary.c))
        cons = enumerate_constituents(model.sublang)
        kept = [con for m in part.members for con in m.constituents]
        assert kept == [con for con in cons if need <= con]
        for con in set(cons) - set(kept):
            assert not need <= con
            assert constituent_posterior(con, model.summary, model.params).is_zero


def test_partition_validation():
    with pytest.raises(ValueError):
        MessagePartition((), (0.5, 0.6))
    with pytest.raises(ValueError):
        MessagePartition((), (-0.1, 1.1))
    model = random_model(random.Random(1), slack=1)
    sl = model.sublang
    a, b, c = enumerate_constituents(sl)[:3]
    overlapping = (sl.sentence([a]), sl.sentence([b, c]), sl.sentence([c]))
    with pytest.raises(ValueError, match="disjoint"):
        MessagePartition(overlapping, (0.5, 0.25, 0.25))
    disjoint = overlapping[:2]
    MessagePartition(disjoint, (0.5, 0.5))  # disjoint members pass
    with pytest.raises(ValueError, match="one weight per member"):
        MessagePartition(disjoint, (1.0,))
    with pytest.raises(ValueError, match="log weights must align"):
        MessagePartition(disjoint, (0.5, 0.5), ln_probs=(0.0,))
    # the joint of two message lists holds to the same rules
    for joint, match in ((((1.0,),), "shape"), (((0.5, 0.5),), "shape"),
                         (((1.5, -0.5), (0.0, 0.0)), "nonnegative"),
                         (((0.5, 0.25), (0.0, 0.0)), "sum to one")):
        with pytest.raises(ValueError, match=match):
            JointMessageDistribution(disjoint, disjoint, joint, model)


def test_cont_entropy_bounds(rng):
    for _ in range(10):
        model = random_model(rng)
        sig = UniverseSignature(3, 4)
        ce = cont_entropy(model, sig)
        norm = ce.normalized.to_float()
        assert ce.members == 2 ** model.big_k - 1
        assert 0.0 <= norm <= 1.0 - 1.0 / ce.members + 1e-12
        # raw is the normalized value scaled by the state-space volume
        want_ln = ce.normalized.ln_mag + sig.volume_exponent * math.log(2.0)
        if not ce.normalized.is_zero:
            assert ce.raw.ln_mag == pytest.approx(want_ln, abs=1e-9)


def test_cont_entropy_degenerate_zero(rng):
    # without slack only the exact-evidence hypothesis is compatible
    for _ in range(5):
        model = random_model(rng, slack=0)
        ce = cont_entropy(model, UniverseSignature(2, 2))
        assert ce.normalized.is_zero and ce.raw.is_zero
        assert inf_entropy(model) == 0.0


@pytest.mark.parametrize("probs", [
    (1.0, 0.0, 0.0),
    (1e-300, 1.0),
    (0.5, 0.25, 0.25, 0.0),
    (1e-300, 0.3, 0.7),
    (0.1,) * 10,
])
def test_partition_derives_ln_probs_from_weights(probs):
    direct = MessagePartition((), probs)
    assert direct.ln_probs == tuple(
        -math.inf if p == 0.0 else math.log(p) for p in probs)


def test_cont_entropy_uniform_peak():
    for big_k in (2, 3, 12, 60, 1100):
        members = 2 ** big_k - 1
        ce = cont_entropy(_prior_model(big_k), UniverseSignature(0, 0))
        assert ce.normalized.to_float() == pytest.approx(
            (members - 1) / members, rel=1e-12)


def _enumerated_entropies(model):
    # The oracle: one term per hypothesis of the enumerated partition, with
    # each complement summed directly over all the other hypotheses.
    ln_ps = [ln for ln in MessagePartition.from_model(model).ln_probs
             if ln != -math.inf]
    before = [-math.inf]  # mass of the hypotheses ahead of each one
    for ln in ln_ps[:-1]:
        before.append(float(np.logaddexp(before[-1], ln)))
    after = [-math.inf]  # and of those behind it
    for ln in reversed(ln_ps[1:]):
        after.append(float(np.logaddexp(after[-1], ln)))
    after.reverse()
    cont_terms = [ExtremeReal.from_ln(ln + float(np.logaddexp(b, a)))
                  for ln, b, a in zip(ln_ps, before, after)]
    normalized = xsum(cont_terms)
    bits = math.fsum(-math.exp(ln) * ln for ln in ln_ps) / math.log(2.0)
    return normalized, bits


def _assert_matches_oracle(model, sig):
    ce = cont_entropy(model, sig)
    want, bits = _enumerated_entropies(model)
    assert ce.members == 2 ** model.big_k - 1
    if want.is_zero:
        assert ce.normalized.is_zero
    else:
        # ln differences are relative differences of the values
        assert abs(ce.normalized.ln_mag - want.ln_mag) <= 1e-10
    assert inf_entropy(model) == pytest.approx(bits, rel=1e-10, abs=1e-300)


_PARAMS = [InductiveParams(alpha=alpha) for alpha in (0.0, 0.5)] + [
    InductiveParams(lambda_value=lam, alpha=alpha)
    for lam in (2.0, math.inf) for alpha in (0.0, 0.5)]


def test_width_route_matches_enumeration(rng):
    for _ in range(20):
        model = random_model(rng, params=rng.choice(_PARAMS))
        _assert_matches_oracle(model, UniverseSignature(3, 4))


@pytest.mark.parametrize("slack", [1, 2, 3])
def test_width_route_matches_enumeration_on_stories(slack):
    # the volumes the manifest declares, as analyze uses them
    for story in load_manifest(DATA_DIR):
        ev, _ = load_evidence(story.evidence_path)
        sl = build_sublanguage(ev, SubLanguageConfig(slack=slack))
        summary = sl.summary.scaled_to(story.observations)
        sig = UniverseSignature(len(ev.predicates), len(ev.entities))
        for params in _PARAMS:
            _assert_matches_oracle(InductiveModel(sl, params, summary), sig)


def test_diagonal_joint_recovers_cont_entropy(rng):
    # matched send/receive per cell: shared content equals the entropy
    for _ in range(5):
        model = random_model(rng)
        part = MessagePartition.from_model(model)
        sig = UniverseSignature(2, 3)
        n = len(part.members)
        joint = [[part.probs[i] if i == j else 0.0 for j in range(n)]
                 for i in range(n)]
        jd = JointMessageDistribution(
            part.members, part.members, tuple(map(tuple, joint)), model)
        mi = mutual_cont_information(jd, sig)
        ce = cont_entropy(model, sig)
        assert mi.sign == ce.raw.sign
        if not ce.raw.is_zero:
            assert math.isclose(mi.ln_mag, ce.raw.ln_mag,
                                rel_tol=1e-9, abs_tol=1e-9)


def test_joint_chain_entropy(rng):
    # per-pair chain identity survives the expectation
    model = random_model(rng, slack=1)
    part = MessagePartition.from_model(model)
    sig = UniverseSignature(2, 2)
    n = len(part.members)
    rnd = random.Random(9)
    weights = [[rnd.random() * part.probs[i] for _ in range(n)]
               for i in range(n)]
    total = math.fsum(math.fsum(row) for row in weights)
    joint = [[w / total for w in row] for row in weights]
    jd = JointMessageDistribution(
        part.members, part.members, tuple(map(tuple, joint)), model)
    mi = mutual_cont_information(jd, sig)
    cc = cond_cont_entropy(jd, sig)
    want = math.fsum(
        math.fsum(row) * cont_sentence(m, model)
        for row, m in zip(joint, part.members))
    got = (mi + cc).to_float() / 2.0 ** sig.volume_exponent
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_measures_match_brute_force(rng):
    # width-class pricing against literal sums over single hypotheses
    for _ in range(5):
        model = random_model(rng)
        weight = {c: constituent_posterior(c, model.summary,
                                           model.params).to_float()
                  for c in enumerate_constituents(model.sublang)}

        def excluded(s):
            return math.fsum(w for c, w in weight.items()
                             if c not in s.constituents)

        for _ in range(30):
            s1 = _random_sentence(rng, model)
            s2 = _random_sentence(rng, model)
            assert cont_sentence(s1, model) == pytest.approx(
                excluded(s1), abs=1e-12)
            assert transcont(s2, s1, model) == pytest.approx(
                excluded(s1 | s2), abs=1e-12)
            assert cond_cont(s2, s1, model) == pytest.approx(
                math.fsum(weight[c] for c in s1.constituents
                          if c not in s2.constituents), abs=1e-12)


def test_inductive_independence_uniform_prior():
    rnd = random.Random(3)
    model = random_model(rnd, slack=2,
                         params=InductiveParams())
    taut = model.sublang.upset(())
    some = model.sublang.sentence(enumerate_constituents(model.sublang)[:1])
    # the tautology is independent of everything
    assert is_inductively_independent(taut, some, model)


def test_scale_entropies_anchors():
    values = [ExtremeReal.from_ln(v * math.log(10.0))
              for v in (-500.0, -100.0, -300.0)]
    scaled = scale_entropies(values)
    assert scaled["min_scaled"][0].ln_mag == 0.0  # the smallest maps to 1
    assert scaled["max_scaled"][1].ln_mag == 0.0  # the largest maps to 1
    assert scaled["min_scaled"][1].log10_mag == pytest.approx(400.0, abs=1e-9)
    assert scaled["max_scaled"][0].log10_mag == pytest.approx(-400.0, abs=1e-9)


def test_scale_entropies_rejects_zero():
    with pytest.raises(ValueError):
        scale_entropies([ExtremeReal.zero(), ExtremeReal.from_float(1.0)])
    with pytest.raises(ValueError):
        scale_entropies([])
