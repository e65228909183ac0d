"""Content and surprise measures: identities, bounds, brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm.inductive import InductiveParams
from semcomm.measures import (JointMessageDistribution,
                              MessagePartition, UniverseSignature, cond_cont,
                              cond_cont_entropy, cont, cont_entropy,
                              cont_sentence, inf_entropy, inf_measure,
                              is_inductively_independent, is_l_exclusive,
                              mutual_cont_information, scale_entropies,
                              transcont)
from semcomm.xreal import ExtremeReal

from conftest import random_model


def _random_sentence(rnd, model):
    cons = list(model.sublang.all_constituents())
    size = rnd.randint(1, len(cons))
    return model.sublang.sentence(rnd.sample(cons, size))


def test_point_measures():
    assert cont(0.25) == 0.75
    assert inf_measure(0.25) == 4.0
    assert cont(1.0) == 0.0
    assert inf_measure(0.0) == math.inf
    with pytest.raises(ValueError):
        inf_measure(-0.1)


def test_inf_entropy_uniform():
    assert inf_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)
    assert inf_entropy([1.0]) == 0.0
    with pytest.raises(ValueError):
        inf_entropy([0.5, 0.6])


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
    taut = model.sublang.tautology()
    assert cont_sentence(taut, model) == 0.0
    assert transcont(taut, taut, model) == 0.0


def test_l_exclusive():
    rnd = random.Random(5)
    model = random_model(rnd, slack=2)
    cons = list(model.sublang.all_constituents())
    a = model.sublang.sentence(cons[:1])
    b = model.sublang.sentence(cons[1:2])
    both = model.sublang.sentence(cons[:2])
    assert is_l_exclusive(a, b)
    assert not is_l_exclusive(a, both)


def test_exclusive_contents_add(rng):
    # cont of a disjunction of exclusive sentences: contents add minus 1
    for _ in range(10):
        model = random_model(rng)
        cons = list(model.sublang.all_constituents())
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
        assert len(part.members) == 2 ** model.big_k - 1


def test_partition_validation():
    with pytest.raises(ValueError):
        MessagePartition((), (0.5, 0.6))
    with pytest.raises(ValueError):
        MessagePartition((), (-0.1, 1.1))
    sl = random_model(random.Random(1), slack=1).sublang
    a, b, c = sl.all_constituents()[:3]
    overlapping = (sl.sentence([a]), sl.sentence([b, c]), sl.sentence([c]))
    with pytest.raises(ValueError, match="disjoint"):
        MessagePartition(overlapping, (0.5, 0.25, 0.25))
    MessagePartition(overlapping[:2], (0.5, 0.5))  # disjoint members pass


def test_cont_entropy_bounds(rng):
    for _ in range(10):
        model = random_model(rng)
        part = MessagePartition.from_model(model)
        sig = UniverseSignature(3, 4)
        ce = cont_entropy(part, sig)
        norm = ce.normalized.to_float()
        members = len(part)
        assert 0.0 <= norm <= 1.0 - 1.0 / members + 1e-12
        # raw is the normalized value scaled by the state-space volume
        want_ln = ce.normalized.ln_mag + sig.volume_exponent * math.log(2.0)
        if not ce.normalized.is_zero:
            assert ce.raw.ln_mag == pytest.approx(want_ln, abs=1e-9)


def test_cont_entropy_degenerate_zero():
    part = MessagePartition.from_probs([1.0, 0.0, 0.0])
    ce = cont_entropy(part, UniverseSignature(2, 2))
    assert ce.normalized.is_zero and ce.raw.is_zero


@pytest.mark.parametrize("probs", [
    (1.0, 0.0, 0.0),
    (1e-300, 1.0),
    (0.5, 0.25, 0.25, 0.0),
    (1e-300, 0.3, 0.7),
    (0.1,) * 10,
])
def test_cont_entropy_direct_partition_matches_from_probs(probs):
    # a partition built directly derives its log columns from the weights,
    # exactly as from_probs does
    sig = UniverseSignature(3, 5)
    direct = MessagePartition((), probs)
    assert direct.ln_probs == tuple(
        -math.inf if p == 0.0 else math.log(p) for p in probs)
    assert direct.ln_complements == tuple(
        -math.inf if p == 1.0 else math.log1p(-p) for p in probs)
    assert (cont_entropy(direct, sig)
            == cont_entropy(MessagePartition.from_probs(probs), sig))


def test_cont_entropy_uniform_peak():
    m = 8
    part = MessagePartition.from_probs([1.0 / m] * m)
    ce = cont_entropy(part, UniverseSignature(0, 0))
    assert ce.normalized.to_float() == pytest.approx(1.0 - 1.0 / m, rel=1e-12)


def test_diagonal_joint_recovers_cont_entropy(rng):
    # matched send/receive per cell: shared content equals the entropy
    for _ in range(5):
        model = random_model(rng)
        part = MessagePartition.from_model(model)
        sig = UniverseSignature(2, 3)
        n = len(part)
        joint = [[part.probs[i] if i == j else 0.0 for j in range(n)]
                 for i in range(n)]
        jd = JointMessageDistribution.from_matrix(part.members, part.members,
                                                 joint, model)
        mi = mutual_cont_information(jd, sig)
        ce = cont_entropy(part, sig)
        if ce.raw.is_zero:
            assert mi.is_zero
        else:
            assert mi.is_close(ce.raw, 1e-9)


def test_joint_chain_entropy(rng):
    # per-pair chain identity survives the expectation
    model = random_model(rng, slack=1)
    part = MessagePartition.from_model(model)
    sig = UniverseSignature(2, 2)
    n = len(part)
    rnd = random.Random(9)
    weights = [[rnd.random() * part.probs[i] for _ in range(n)]
               for i in range(n)]
    total = math.fsum(math.fsum(row) for row in weights)
    joint = [[w / total for w in row] for row in weights]
    jd = JointMessageDistribution.from_matrix(part.members, part.members,
                                              joint, model)
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
        weight = {c: model.constituent_posterior(c).to_float()
                  for c in model.sublang.all_constituents()}

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
    taut = model.sublang.tautology()
    some = model.sublang.sentence(list(model.sublang.all_constituents())[:1])
    # the tautology is independent of everything
    assert is_inductively_independent(taut, some, model)


def test_scale_entropies_anchors():
    values = [ExtremeReal.from_log10(-500.0), ExtremeReal.from_log10(-100.0),
              ExtremeReal.from_log10(-300.0)]
    scaled = scale_entropies(values)
    assert scaled["min_scaled"][0].ln_mag == 0.0  # the smallest maps to 1
    assert scaled["max_scaled"][1].ln_mag == 0.0  # the largest maps to 1
    assert scaled["min_scaled"][1].log10_mag == pytest.approx(400.0, abs=1e-9)
    assert scaled["max_scaled"][0].log10_mag == pytest.approx(-400.0, abs=1e-9)


def test_scale_entropies_rejects_zero():
    with pytest.raises(ValueError):
        scale_entropies([ExtremeReal.zero(), ExtremeReal.one()])
    with pytest.raises(ValueError):
        scale_entropies([])
