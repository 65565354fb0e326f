"""Synthetic scenario-mixture generator and its exact oracles.

The reference computations here are independent plain-Python enumerations
over the serialized fixture parameters.
"""

import importlib.util
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scriptcausal import synth
from scriptcausal.corpus import chain_lines
from scriptcausal.errors import ConfigError


def _events(corpus):
    """Each chain's events, as the canonical chain lines hold them."""
    return [json.loads(line)["events"] for line in chain_lines(corpus)]


def _key(event):
    return f"{event['pred']}:{event['dep']}"


@pytest.fixture(scope="module")
def popcorn():
    return synth.build_fixture("F-POPCORN")


def _fixture_json(name):
    fname = name.lower().replace("-", "_") + ".json"
    with resources.files("scriptcausal.fixtures").joinpath(fname).open() as f:
        return json.load(f)


def test_uniform_fixture_do_rows_uniform():
    cbn = synth.build_fixture("F-UNIFORM")
    E = cbn.num_events
    for k in range(E):
        np.testing.assert_allclose(cbn.do_rows()[k],
                                   np.full(E, 1.0 / E), atol=1e-12)


def test_det_fixture_concentrates_on_successor():
    cbn = synth.build_fixture("F-DET")
    for k in range(cbn.num_events):
        row = cbn.do_rows()[k]
        assert row.max() >= 0.98
        # deterministic cycle: designated successor is k+1 mod |E|
        assert int(np.argmax(row)) == (k + 1) % cbn.num_events


def test_popcorn_do_matches_reference_summation(popcorn):
    """Mixture sum re-computed by plain loops over the serialized file."""
    raw = _fixture_json("F-POPCORN")
    keys = raw["events"]
    lam = raw["lambda"]
    E = len(keys)
    k = keys.index("eat_popcorn:nsubj")
    want = [0.0] * E
    for scen in raw["scenarios"]:
        pi_z = scen["prob"]
        row = scen["kernel"]["eat_popcorn:nsubj"]
        for j, key in enumerate(keys):
            smoothed = (1.0 - lam) * row.get(key, 0.0) + lam / E
            want[j] += pi_z * smoothed
    got = popcorn.do_rows()[k]
    np.testing.assert_allclose(got, want, atol=1e-12)


def _reference_conditional(raw, k_key, position):
    """Forward enumeration with plain loops: p(e_{t+1} | e_t = k)."""
    keys = raw["events"]
    lam = raw["lambda"]
    E = len(keys)

    def row(scen, source):
        base = scen["kernel"][source]
        return [(1.0 - lam) * base.get(key, 0.0) + lam / E for key in keys]

    k = keys.index(k_key)
    joint = []  # p(z, e_position = k)
    for scen in raw["scenarios"]:
        v = row(scen, "<s>")
        for _ in range(position - 1):
            v = [sum(v[i] * row(scen, keys[i])[j] for i in range(E))
                 for j in range(E)]
        joint.append(scen["prob"] * v[k])
    total = sum(joint)
    out = [0.0] * E
    for z, scen in enumerate(raw["scenarios"]):
        g = row(scen, k_key)
        for j in range(E):
            out[j] += (joint[z] / total) * g[j]
    return out


def test_popcorn_conditional_matches_reference(popcorn):
    raw = _fixture_json("F-POPCORN")
    k = popcorn.event_keys.index("watch_sad:nsubj")
    for pos in (1, 2, 4):
        want = _reference_conditional(raw, "watch_sad:nsubj", pos)
        got = popcorn.observed_rows(pos)[k]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_popcorn_confounding_direction(popcorn):
    """Observational cry-after-popcorn exceeds the interventional effect."""
    k, cry = map(popcorn.event_keys.index, ["eat_popcorn:nsubj", "cry:nsubj"])
    do_val = popcorn.do_rows()[k, cry]
    for pos in range(2, popcorn.chain_length):
        assert popcorn.observed_rows(pos)[k, cry] > do_val
    assert popcorn.observed_rows()[k, cry] - do_val > 0


def test_single_scenario_conditional_equals_do():
    cbn = synth.build_fixture("F-DET")
    assert cbn.num_scenarios == 1
    for k in range(cbn.num_events):
        np.testing.assert_allclose(cbn.observed_rows()[k],
                                   cbn.do_rows()[k], atol=1e-12)


def test_half_half_mixture_is_elementwise_mean():
    E = 3
    rng = np.random.default_rng(0)
    t = rng.dirichlet(np.ones(E), size=(2, E + 1))
    cbn = synth.SyntheticCBN("MIX", [f"e{i}:x" for i in range(E)],
                             ["s0", "s1"], np.array([0.5, 0.5]), t,
                             lam=0.1, chain_length=4)
    for k in range(E):
        want = 0.5 * (cbn.kernels[0, k + 1] + cbn.kernels[1, k + 1])
        np.testing.assert_allclose(cbn.do_rows()[k], want, atol=1e-12)


def test_oracle_rows_sum_to_one(popcorn):
    for k in range(popcorn.num_events):
        assert popcorn.do_rows()[k].sum() == pytest.approx(1, abs=1e-12)
        for pos in range(1, popcorn.chain_length):
            row = popcorn.observed_rows(pos)[k]
            assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_sampling_deterministic(popcorn):
    c1 = popcorn.sample_chains(20, seed=5)
    c2 = popcorn.sample_chains(20, seed=5)
    for a, b in zip(_events(c1), _events(c2)):
        assert list(map(_key, a)) == list(map(_key, b))


def test_annotated_chains_carry_one_scenario_candidate(popcorn):
    corpus = popcorn.sample_chains(10, seed=3, annotate_scenario=True)
    for chain in _events(corpus):
        for ev in chain:
            assert len(ev["oot"]) == 1
            key, rating = ev["oot"][0]
            assert key.endswith(":scenario") and rating == 4


def test_empirical_unigram_close_to_analytic(popcorn):
    corpus = popcorn.sample_chains(20000, seed=13)
    E = popcorn.num_events
    counts = np.zeros(E)
    for chain in _events(corpus):
        for ev in chain:
            counts[popcorn.event_keys.index(_key(ev))] += 1
    empirical = counts / counts.sum()
    marginal = popcorn.position_marginals().sum(axis=1).mean(axis=0)
    l1 = np.abs(empirical - marginal).sum()
    assert l1 <= 0.02


def test_json_round_trip(popcorn, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    popcorn.save(p1)
    synth.SyntheticCBN.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_a_failed_spec_write_names_its_file(popcorn):
    """The flush at close fails on a full device; the error names the file."""
    with pytest.raises(OSError) as failed:
        popcorn.save("/dev/full")
    assert failed.value.filename == "/dev/full"


def test_invalid_kernels_rejected():
    with pytest.raises(ConfigError):
        synth.SyntheticCBN("BAD", ["a:x", "b:x"], ["s"], np.array([1.0]),
                           np.full((1, 3, 2), 0.3), lam=0.1, chain_length=4)


def test_zipf_cbn_marginals_are_skewed():
    cbn = synth.build_zipf_cbn()
    marg = np.sort(cbn.position_marginals().sum(axis=1).mean(axis=0))[::-1]
    assert marg[0] > 10 * marg[-1]
    for k in range(0, cbn.num_events, 17):
        assert cbn.do_rows()[k].sum() == pytest.approx(1, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10**6))
def test_random_cbn_oracle_rows_are_distributions(E, S, seed):
    rng = np.random.default_rng(seed)
    t = rng.dirichlet(np.ones(E), size=(S, E + 1))
    pi = rng.dirichlet(np.ones(S))
    cbn = synth.SyntheticCBN("R", [f"e{i}:x" for i in range(E)],
                             [f"s{j}" for j in range(S)], pi, t,
                             lam=0.05, chain_length=5)
    for k in range(E):
        assert cbn.do_rows()[k].sum() == pytest.approx(1, abs=1e-9)
        assert cbn.observed_rows()[k].sum() == pytest.approx(1, abs=1e-9)


@pytest.mark.parametrize("name", ["F-POPCORN", "F-DET", "F-UNIFORM", "F-ZIPF"])
def test_oracle_matrices_equal_the_bench_reference(name, monkeypatch):
    """bench/reference.py computes both matrices apart from the package,
    from the spec the CBN serialises to."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    reference = importlib.import_module("reference")
    cbn = synth.build_zipf_cbn() if name == "F-ZIPF" else synth.build_fixture(name)
    spec = cbn.to_dict()
    np.testing.assert_allclose(cbn.do_rows(), reference.exact_do_rows(spec),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(cbn.observed_rows(),
                               reference.exact_observed_rows(spec),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("position", [0, -1, 6, 7])
def test_observed_rows_refuse_a_position_outside_the_chain(popcorn, position):
    assert popcorn.chain_length == 6
    with pytest.raises(ConfigError, match="outside"):
        popcorn.observed_rows(position)


def _reference_chains(cbn, n, seed):
    """Per-chain sampling with rng.choice: the scenario, then each event
    from the previous one's kernel row."""
    out = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        z = int(rng.choice(cbn.num_scenarios, p=cbn.pi))
        state, events = 0, []
        for _ in range(cbn.chain_length):
            e = int(rng.choice(cbn.num_events, p=cbn.kernels[z, state]))
            events.append(cbn.event_keys[e])
            state = e + 1
        out.append((cbn.scenario_names[z], events))
    return out


@pytest.mark.parametrize("name", ["F-POPCORN", "F-DET", "F-UNIFORM", "F-ZIPF"])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_vectorized_sampling_matches_per_chain_choice(name, seed):
    cbn = synth.build_zipf_cbn() if name == "F-ZIPF" else synth.build_fixture(name)
    corpus = cbn.sample_chains(150, seed, annotate_scenario=True)
    chains = _events(corpus)
    got = [(ch[0]["oot"][0][0].split(":")[0], list(map(_key, ch))) for ch in chains]
    assert got == _reference_chains(cbn, 150, seed)
    assert all(ev["oot"] == [[synth.scenario_key(z), 4]]
               for (z, _), ch in zip(got, chains) for ev in ch)


@pytest.mark.parametrize("seed", [0, 1, 77, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
@pytest.mark.parametrize("length", [2, 10])
@pytest.mark.parametrize("n", [1, 3000])
def test_uniforms_equal_the_per_chain_generators(seed, length, n):
    """The L + 1 uniforms of every chain, made for all chains at once, are
    those of its own ``default_rng([seed, i])``, bit for bit."""
    want = np.array([np.random.default_rng([seed, i]).random(length + 1)
                     for i in range(n)])
    assert np.array_equal(synth._uniforms(seed, n, length + 1), want)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.5, TypeError)])
def test_sampling_refuses_the_seeds_numpy_refuses(popcorn, seed, error):
    with pytest.raises(error):
        np.random.default_rng([seed, 0])
    with pytest.raises(error):
        popcorn.sample_chains(3, seed)


def test_fixtures_match_their_generator(tmp_path, monkeypatch):
    """demos/make_fixtures.py rebuilds every packaged fixture byte for byte."""
    path = Path(__file__).resolve().parent.parent / "demos" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT", tmp_path)
    make_fixtures.main()
    fixtures = resources.files("scriptcausal.fixtures")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["f_det.json", "f_popcorn.json", "f_uniform.json"]
    for name in names:
        assert (tmp_path / name).read_bytes() == fixtures.joinpath(name).read_bytes()
