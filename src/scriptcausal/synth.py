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

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .corpus import ChainCorpus, ChainEvent, EventChain
from .errors import ConfigError, DataFormatError
from .events import EventType

FIXTURE_NAMES = ("F-POPCORN", "F-DET", "F-UNIFORM")

_FIXTURE_FILES = {
    "F-POPCORN": "f_popcorn.json",
    "F-DET": "f_det.json",
    "F-UNIFORM": "f_uniform.json",
}

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
        if abs(self.pi.sum() - 1.0) > 1e-9 or np.any(self.pi < 0):
            raise ConfigError("scenario prior must be a distribution")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError("smoothing weight must be in (0, 1]")
        row_sums = self.templates.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-9) or np.any(self.templates < 0):
            raise ConfigError("every kernel row must be a distribution")
        if self.chain_length < 2:
            raise ConfigError("chain_length must be >= 2")
        self.kernels = (1.0 - self.lam) * self.templates + self.lam / E
        self._key_index = {k: i for i, k in enumerate(self.event_keys)}

    @property
    def num_events(self) -> int:
        return len(self.event_keys)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenario_names)

    def event_index(self, key) -> int:
        if isinstance(key, (int, np.integer)):
            if not 0 <= key < self.num_events:
                raise ConfigError(f"event index {key} out of range")
            return int(key)
        idx = self._key_index.get(key)
        if idx is None:
            raise ConfigError(f"unknown event key {key!r}")
        return idx

    # -- exact oracles -----------------------------------------------------

    def exact_do_distribution(self, k) -> np.ndarray:
        """p(e_i | do(e_{i-1}=k)) = sum_z pi(z) g_z(. | k); position-free."""
        ki = self.event_index(k)
        return self.pi @ self.kernels[:, ki + 1, :]

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

    def exact_conditional(self, k, position: int) -> np.ndarray:
        """p(e_{t+1} | e_t = k) at 1-based position t, by enumeration."""
        if not 1 <= position <= self.chain_length - 1:
            raise ConfigError(
                f"position {position} outside [1, {self.chain_length - 1}]"
            )
        ki = self.event_index(k)
        joint = self.position_marginals()[position - 1][:, ki]  # p(z, e_t=k)
        total = joint.sum()
        if total <= 0:
            raise ConfigError(f"event {k!r} has zero probability at position {position}")
        return (joint / total) @ self.kernels[:, ki + 1, :]

    def aggregate_conditional(self, k) -> np.ndarray:
        """p(e_{t+1} | e_t = k) pooled over all positions t = 1..L-1."""
        ki = self.event_index(k)
        joint = self.position_marginals()[: self.chain_length - 1, :, ki].sum(axis=0)
        return (joint / joint.sum()) @ self.kernels[:, ki + 1, :]

    def unigram_marginal(self) -> np.ndarray:
        """Event distribution of a uniformly random chain position."""
        return self.position_marginals().sum(axis=1).mean(axis=0)

    def confounding_gap(self, k, l) -> float:
        """Observational minus interventional probability of l after k."""
        ki, li = self.event_index(k), self.event_index(l)
        return float(self.aggregate_conditional(ki)[li]
                     - self.exact_do_distribution(ki)[li])

    # -- sampling ----------------------------------------------------------

    def sample_chains(self, n: int, seed: int,
                      annotate_scenario: bool = False) -> ChainCorpus:
        """Draw n chains; per-chain rngs derived from (seed, index)."""
        if n < 1:
            raise ConfigError("need n >= 1 chains")
        chains = []
        for i in range(n):
            rng = np.random.default_rng([seed, i])
            z = int(rng.choice(self.num_scenarios, p=self.pi))
            oot = ([(scenario_key(self.scenario_names[z]), 4)]
                   if annotate_scenario else None)
            events = []
            state = 0  # START row
            for _ in range(self.chain_length):
                e = int(rng.choice(self.num_events, p=self.kernels[z, state]))
                ev = EventType.from_key(self.event_keys[e])
                events.append(ChainEvent(ev, None, list(oot) if oot else None))
                state = e + 1
            chains.append(EventChain(f"{self.name.lower()}-{seed}-{i}", events))
        return ChainCorpus(chains, provenance=f"{self.name} seed={seed} n={n}")

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
        try:
            event_keys = list(obj["events"])
            lam = float(obj["lambda"])
            L = int(obj["chain_length"])
            scen = obj["scenarios"]
            name = obj["name"]
        except (KeyError, TypeError, ValueError) as e:
            raise DataFormatError(f"malformed CBN spec: {e}") from e
        E = len(event_keys)
        index = {k: i for i, k in enumerate(event_keys)}
        pi = np.array([s["prob"] for s in scen], dtype=float)
        templates = np.zeros((len(scen), E + 1, E))
        for s, sc in enumerate(scen):
            for source, row in sc["kernel"].items():
                r = 0 if source == "<s>" else index[source] + 1
                for target, w in row.items():
                    templates[s, r, index[target]] = float(w)
        return SyntheticCBN(name, event_keys, [s["name"] for s in scen],
                            pi, templates, lam, L)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path) -> "SyntheticCBN":
        with open(path, encoding="utf-8") as f:
            return SyntheticCBN.from_dict(json.load(f))


def build_fixture(name: str) -> SyntheticCBN:
    """Load one of the packaged fixtures: F-POPCORN, F-DET, F-UNIFORM."""
    if name not in _FIXTURE_FILES:
        raise ConfigError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    ref = resources.files("scriptcausal.fixtures") / _FIXTURE_FILES[name]
    return SyntheticCBN.from_dict(json.loads(ref.read_text(encoding="utf-8")))


def build_zipf_cbn(num_filler: int = 40, num_scenarios: int = 12,
                   events_per_scenario: int = 25, chain_length: int = 10,
                   filler_prob: float = 0.55, lam: float = 0.05,
                   zipf_exponent: float = 1.2, seed: int = 0) -> SyntheticCBN:
    """A larger generator with Zipf-skewed marginals for cloze experiments.

    Filler events are shared across scenarios and Zipf-distributed (they
    dominate the frequency ranking); each scenario additionally owns a block
    of rare events that near-deterministically chain within the scenario.
    """
    rng = np.random.default_rng(seed)
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
        rare_row = np.zeros(E)
        rare_row[own] = 1.0 / events_per_scenario
        start = np.zeros(E)
        start[:num_filler] = filler_prob * zipf
        start[own] = (1.0 - filler_prob) / events_per_scenario
        templates[z, 0] = start
        for row in range(E):
            out = np.zeros(E)
            out[:num_filler] = filler_prob * zipf
            if own.start <= row < own.stop:
                j = row - own.start
                block = np.zeros(E)
                block[own] = 0.0
                block[num_filler + z * events_per_scenario:
                      num_filler + (z + 1) * events_per_scenario] = succ[j]
                out += (1.0 - filler_prob) * block
            else:
                out += (1.0 - filler_prob) * rare_row
            templates[z, row + 1] = out
    pi = np.full(num_scenarios, 1.0 / num_scenarios)
    return SyntheticCBN("F-ZIPF", event_keys,
                        [f"scenario{z:02d}" for z in range(num_scenarios)],
                        pi, templates, lam, chain_length)
