"""Synthetic scenario-mixture Markov generators with exact oracles.

A SyntheticCBN draws a latent scenario z with prior pi, then generates a
fixed-length event chain from the scenario's Markov kernel starting at a
START pseudo-state. The scenario is a common cause of every pair of
adjacent events, so observational next-event statistics are confounded
while the interventional distribution has the closed form

    p(e' | do(e = k)) = sum_z pi(z) * g_z(e' | k).

Every kernel row is mixed with the uniform distribution (weight ``lam``) so
positivity holds: any event can follow any other in any scenario.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .corpus import ChainCorpus
from .errors import ConfigError, DataFormatError, read_json
from .events import EventType

_FIXTURE_FILES = {
    "F-POPCORN": "f_popcorn.json",
    "F-DET": "f_det.json",
    "F-UNIFORM": "f_uniform.json",
}
FIXTURE_NAMES = tuple(_FIXTURE_FILES)

SCENARIO_RELATION = "scenario"


def scenario_key(name: str) -> str:
    """Pseudo-event key used to expose the scenario on the M_O channel."""
    return f"{name}:{SCENARIO_RELATION}"


@dataclass
class SyntheticCBN:
    name: str
    event_keys: list[str]
    scenario_names: list[str]
    pi: np.ndarray                    # (S,)
    templates: np.ndarray             # (S, |E|+1, |E|); row 0 = from START
    lam: float
    chain_length: int
    kernels: np.ndarray = field(init=False)  # smoothed templates

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.templates = np.asarray(self.templates, dtype=float)
        E = len(self.event_keys)
        S = len(self.scenario_names)
        if self.templates.shape != (S, E + 1, E):
            raise ConfigError(f"kernel shape {self.templates.shape} inconsistent")
        # written so that a NaN or infinite prior fails it
        if not (np.all(self.pi >= 0) and abs(self.pi.sum() - 1.0) <= 1e-9):
            raise ConfigError("scenario prior must be a distribution")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError("smoothing weight must be in (0, 1]")
        row_sums = self.templates.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-9) or np.any(self.templates < 0):
            raise ConfigError("every kernel row must be a distribution")
        if self.chain_length < 2:
            raise ConfigError("chain_length must be >= 2")
        for key in [*self.event_keys, *map(scenario_key, self.scenario_names)]:
            EventType.from_key(key)   # chain files must be able to hold it
        self.kernels = (1.0 - self.lam) * self.templates + self.lam / E

    @property
    def num_events(self) -> int:
        return len(self.event_keys)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenario_names)

    # -- exact oracles -----------------------------------------------------

    def position_marginals(self) -> np.ndarray:
        """p(z, e_t) for t = 1..L as an (L, S, |E|) array."""
        L, S, E = self.chain_length, self.num_scenarios, self.num_events
        out = np.empty((L, S, E))
        v = self.kernels[:, 0, :]  # (S, E): distribution of e_1 per scenario
        for t in range(L):
            out[t] = self.pi[:, None] * v
            # step each scenario's event marginal forward one transition
            v = np.einsum("se,sef->sf", v, self.kernels[:, 1:, :])
        return out

    def do_rows(self) -> np.ndarray:
        """(|E|, |E|): row k is p(e_i | do(e_{i-1} = k)) = sum_z pi(z)
        g_z(. | k), the same at every position."""
        return np.einsum("z,zkl->kl", self.pi, self.kernels[:, 1:, :])

    def observed_rows(self, position: int | None = None) -> np.ndarray:
        """(|E|, |E|): row k is p(e_{t+1} | e_t = k) at 1-based position t,
        or pooled over t = 1..L-1 when ``position`` is None. Every event has
        mass at every position, since ``lam`` > 0."""
        if position is not None and not 1 <= position <= self.chain_length - 1:
            raise ConfigError(
                f"position {position} outside [1, {self.chain_length - 1}]")
        marginals = self.position_marginals()    # p(z, e_t = k), t = 1..L
        joint = (marginals[:-1].sum(axis=0) if position is None
                 else marginals[position - 1])
        rows = np.einsum("zk,zkl->kl", joint, self.kernels[:, 1:, :])
        return rows / joint.sum(axis=0)[:, None]

    # -- sampling ----------------------------------------------------------

    def sample_chains(self, n: int, seed: int,
                      annotate_scenario: bool = False) -> ChainCorpus:
        """Draw n chains. Chain i takes the L + 1 uniforms
        ``default_rng([seed, i]).random(L + 1)``, made for all chains at once
        by ``_uniforms`` (``test_uniforms_equal_the_per_chain_generators``
        holds them equal bit for bit): one picks the scenario, the others
        walk its kernel from START. Each pick inverts the CDF as
        ``rng.choice(p=...)`` does: ``cdf /= cdf[-1]``, then ``side="right"``;
        a scenario's chains walk together over its CDFs, normalised once."""
        if n < 1:
            raise ConfigError("need n >= 1 chains")
        L = self.chain_length
        u = _uniforms(seed, n, L + 1)
        pi_cdf = self.pi.cumsum()
        z = (pi_cdf / pi_cdf[-1] <= u[:, :1]).sum(axis=1)
        events = np.empty((n, L), dtype=np.intp)
        for s in range(self.num_scenarios):
            rows = np.flatnonzero(z == s)
            cdf = self.kernels[s].cumsum(axis=1)
            cdf /= cdf[:, -1:]
            state, us = np.zeros(len(rows), np.intp), u[rows]   # START row
            for t in range(L):
                events[rows, t] = (cdf[state] <= us[:, t + 1, None]).sum(axis=1)
                state = events[rows, t] + 1
        # no text; with annotations, one (scenario, 4) pair per event
        m, a = n * L, int(annotate_scenario)
        return ChainCorpus(
            [f"{self.name.lower()}-{seed}-{i}" for i in range(n)],
            np.arange(0, m + 1, L), events.ravel(),
            [EventType.from_key(k) for k in self.event_keys],
            np.zeros(m + 1, np.intp), np.zeros(0, np.intp), [], np.arange(m + 1) * a,
            np.repeat(z, L * a), np.full(m * a, 4),
            [scenario_key(s) for s in self.scenario_names])

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        scenarios = []
        for s, name in enumerate(self.scenario_names):
            kernel = {}
            for row, source in enumerate(["<s>"] + self.event_keys):
                weights = self.templates[s, row]
                kernel[source] = {self.event_keys[j]: weights[j]
                                  for j in np.nonzero(weights)[0]}
            scenarios.append({"name": name, "prob": float(self.pi[s]),
                              "kernel": kernel})
        return {"name": self.name, "events": list(self.event_keys),
                "lambda": self.lam, "chain_length": self.chain_length,
                "scenarios": scenarios}

    @staticmethod
    def from_dict(obj: dict) -> "SyntheticCBN":
        """The CBN a spec describes; a bad field raises DataFormatError."""
        try:
            name, event_keys = obj["name"], list(obj["events"])
            lam, L = float(obj["lambda"]), int(obj["chain_length"])
            scen = obj["scenarios"]
            scenario_names = [s["name"] for s in scen]
            pi = np.array([float(s["prob"]) for s in scen])
            index = {k: i for i, k in enumerate(event_keys)}
            templates = np.zeros((len(scen), len(event_keys) + 1, len(event_keys)))
            for s, sc in enumerate(scen):
                for source, row in sc["kernel"].items():
                    r = 0 if source == "<s>" else index[source] + 1
                    for target, w in row.items():
                        templates[s, r, index[target]] = float(w)
            return SyntheticCBN(name, event_keys, scenario_names, pi, templates, lam, L)
        except KeyError as e:
            raise DataFormatError(f"malformed CBN spec: missing field or "
                                  f"unknown event {e}") from e
        except (TypeError, ValueError, OverflowError, AttributeError,
                ConfigError, DataFormatError) as e:
            raise DataFormatError(f"malformed CBN spec: {e}") from e

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path) -> "SyntheticCBN":
        return read_json(path, "CBN spec", SyntheticCBN.from_dict)


def _hash32(x, j, init=0x43B0D7E5, mult=0x931E8875):
    """SeedSequence's j-th hashmix of the uint32 words x; with INIT_B and
    MULT_B, its j-th output word."""
    c = [init * pow(mult, j + d, 1 << 32) & 0xFFFFFFFF for d in (0, 1)]
    x = (x ^ c[0]) * c[1]
    return x ^ x >> 16


def _uniforms(seed, n, k):
    """Row i is ``np.random.default_rng([seed, i]).random(k)`` bit for bit
    (i < 2**32), with the integer arithmetic of all rows done at once:
    SeedSequence mixes the 32-bit words of seed and i into its pool and
    draws ``generate_state(4, uint64)`` from it (NEP 19); PCG64 seeds its
    128-bit LCG with them and takes k steps, each giving its XSL-RR output
    x (O'Neill 2014), in 64-bit limbs; the double is ``(x >> 11) * 2**-53``."""
    np.random.SeedSequence(seed)   # refuses what default_rng refuses
    seed, m32 = int(seed), 0xFFFFFFFF
    words = [np.full(n, seed >> s & m32, np.uint32)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(n, dtype=np.uint32))
    j = itertools.count()
    pool = [_hash32(w, next(j)) for w in (words + [np.zeros(n, np.uint32)] * 2)[:4]]
    for src, dst in [*itertools.permutations(range(4), 2),
                     *itertools.product(range(4, len(words)), range(4))]:
        y = _hash32(pool[src] if src < 4 else words[src], next(j))
        x = 0xCA01F9DD * pool[dst] - 0x4973F715 * y   # mix(pool[dst], y)
        pool[dst] = x ^ x >> 16
    out = [_hash32(pool[w % 4], w, 0x8B51F9DD, 0x58F38DED).astype(np.uint64)
           for w in range(8)]
    s_hi, s_lo, i_hi, i_lo = (out[w] | out[w + 1] << 32 for w in range(0, 8, 2))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1

    def step(hi, lo):
        """state * 0x2360ED051FC65DA4_4385DF649FCCF645 + inc, mod 2**128."""
        l0, l1 = lo & m32, lo >> 32   # lo * the low word, in 32-bit halves
        p00, p01, p10 = l0 * 0x9FCCF645, l0 * 0x4385DF64, l1 * 0x9FCCF645
        mid = (p00 >> 32) + (p01 & m32) + (p10 & m32)
        high = l1 * 0x4385DF64 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        low = lo * 0x4385DF649FCCF645 + inc_lo
        return (high + lo * 0x2360ED051FC65DA4 + hi * 0x4385DF649FCCF645
                + inc_hi + (low < inc_lo)), low

    lo = inc_lo + s_lo   # the state is inc after the first step; add the seed
    hi, lo = step(inc_hi + s_hi + (lo < s_lo), lo)
    x = np.empty((n, k), dtype=np.uint64)
    for t in range(k):
        hi, lo = step(hi, lo)
        rot = hi >> 58
        x[:, t] = (hi ^ lo) >> rot | (hi ^ lo) << (-rot & 63)
    return (x >> 11) * 2.0 ** -53


def build_fixture(name: str) -> SyntheticCBN:
    """Load the packaged fixture ``name``, one of FIXTURE_NAMES."""
    if name not in _FIXTURE_FILES:
        raise ConfigError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    ref = resources.files("scriptcausal.fixtures") / _FIXTURE_FILES[name]
    return SyntheticCBN.from_dict(json.loads(ref.read_text(encoding="utf-8")))


def build_zipf_cbn() -> SyntheticCBN:
    """F-ZIPF: a larger generator with Zipf-skewed marginals for cloze experiments.

    Filler events are shared across scenarios and Zipf-distributed (they
    dominate the frequency ranking); each scenario additionally owns a block
    of rare events that near-deterministically chain within the scenario.
    """
    num_filler, num_scenarios, events_per_scenario = 40, 12, 25
    filler_prob, zipf_exponent, lam, chain_length = 0.55, 1.2, 0.05, 10
    rng = np.random.default_rng(0)
    fillers = [f"filler{i:03d}:nsubj" for i in range(num_filler)]
    rare = [f"s{z:02d}e{j:02d}:nsubj"
            for z in range(num_scenarios) for j in range(events_per_scenario)]
    event_keys = fillers + rare
    E = len(event_keys)
    zipf = 1.0 / np.arange(1, num_filler + 1) ** zipf_exponent
    zipf /= zipf.sum()
    templates = np.zeros((num_scenarios, E + 1, E))
    for z in range(num_scenarios):
        own = slice(num_filler + z * events_per_scenario,
                    num_filler + (z + 1) * events_per_scenario)
        # each rare event prefers a few specific successors within the block
        succ = np.zeros((events_per_scenario, events_per_scenario))
        for j in range(events_per_scenario):
            picks = rng.choice(events_per_scenario, size=3, replace=False)
            succ[j, picks] = rng.dirichlet(np.ones(3) * 2.0)
        templates[z, :, :num_filler] = filler_prob * zipf
        templates[z, 0, own] = (1.0 - filler_prob) / events_per_scenario
        # from a filler or another scenario's event: uniform over the block
        templates[z, 1:, own] = (1.0 - filler_prob) * (1.0 / events_per_scenario)
        templates[z, 1 + own.start:1 + own.stop, own] = (1.0 - filler_prob) * succ
    pi = np.full(num_scenarios, 1.0 / num_scenarios)
    return SyntheticCBN("F-ZIPF", event_keys,
                        [f"scenario{z:02d}" for z in range(num_scenarios)],
                        pi, templates, lam, chain_length)
