"""The four benchmark workloads: their job mix, their inputs and their checks.

Every job is one ``regtail`` CLI call. Its pattern reaches the program as an
edge-list file, written during set-up, whose vertex ids are a fresh random
relabeling drawn from the workload seed. A fresh CLI process never sees a
memo entry from an earlier call; relabeling keeps the same true of
successive jobs inside one benchmark process, where any cache keyed on the
edge set would otherwise turn repeated patterns into hits.

The output checks compare results between relabelings and against values
pinned in the README and the tests. None of them pins a random stream, so a
change that legitimately alters the sampler's draws still passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

RELABEL_SPACE = 1000

Edges = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# Pattern corpus (built here, independently of the package's constructors)
# ---------------------------------------------------------------------------

def complete(n: int) -> Edges:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def multipartite(*sizes: int) -> Edges:
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    return [(u, v) for u in range(len(part)) for v in range(u + 1, len(part))
            if part[u] != part[v]]


def cycle(k: int, base: int = 0) -> Edges:
    return [(base + i, base + (i + 1) % k) for i in range(k)]


K0 = multipartite(2, 4) + [(2, 3)]  # K_{2,4} plus an edge on the four-vertex side

PATTERNS: dict[str, Edges] = {
    "P3": [(0, 1), (1, 2)],
    "tree5": [(0, 1), (1, 2), (1, 3), (3, 4)],
    "C3": cycle(3),
    "C4": cycle(4),
    "C5": cycle(5),
    "C3+C4": cycle(3) + cycle(4, base=3),
    "K4": complete(4),
    "K5": complete(5),
    "butterfly": cycle(3) + [(0, 3), (0, 4), (3, 4)],
    "K23": multipartite(2, 3),
    "K24": multipartite(2, 4),
    "K33": multipartite(3, 3),
    "K34": multipartite(3, 4),
    "K1122": multipartite(1, 1, 2, 2),
    "K0": K0,
    "K0+C3": K0 + cycle(3, base=6),
}

# Dispatch class of each invariants pattern. K6 minus an edge is left out:
# it exits with code 3 (cap exceeded) today.
CORPUS = {
    "tree5": "forest",
    "C3+C4": "cycle-union",
    "K4": "rho-exact", "butterfly": "rho-exact", "K23": "rho-exact",
    "K24": "rho-exact", "K33": "rho-exact", "K5": "rho-exact",
    "K34": "rho-exact", "K1122": "rho-exact",
    "K0": "k0-special",
    "K0+C3": "log-bracket",
}

# Base values taken from the README and the test suite.
PINNED = {
    "K0": {"gamma": "1", "P": "1 + z^2 + w^3 + z^2 w + 2 z^3"},
    "K23": {"gamma": "1/2", "rho": 1.0},
    "K1122": {"gamma": "7/3"},
}


def relabel(edges: Edges, rng: random.Random) -> Edges:
    """Same graph under random distinct vertex ids, edge order and orientation."""
    vertices = sorted({x for e in edges for x in e})
    ids = dict(zip(vertices, rng.sample(range(RELABEL_SPACE), len(vertices))))
    out = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def edge_list_text(edges: Edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """One job configuration: a pattern and how to turn its file into argv."""

    key: str
    pattern: str
    argv: Callable[[str, random.Random], list[str]]
    meta: dict = field(default_factory=dict)


@dataclass
class Job:
    config: Config
    argv: list[str]


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


class Workload:
    """A fixed job mix. One pass runs every configuration once, in an order
    shuffled by the seed; a run is a whole number of passes."""

    name = ""
    pass_s = 1.0   # about the wall time of one pass on the reference machine
    sink_names: tuple[str, ...] = ()

    def __init__(self, regtail):
        self.rt = regtail
        self.captured: list[tuple[tuple, dict, object]] = []
        self.configs = self.make_configs()

    def make_configs(self) -> list[Config]:
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed by --seconds alone, never by measured speed,
        so both sides of a comparison run the same jobs."""
        return max(1, math.ceil(seconds / self.pass_s))

    def sinks(self) -> dict[str, Callable]:
        return {name: self._capture for name in self.sink_names}

    def _capture(self, args, kwargs, result) -> None:
        self.captured.append((args, kwargs, result))

    def jobs(self, seed: int, label: str, workdir: Path, relabel_patterns: bool = True) -> list[Job]:
        """Generate (and write the input files of) one pass of jobs."""
        rng = random.Random(f"regtail-bench:{self.name}:{seed}:{label}")
        out = []
        for i, cfg in enumerate(self.configs):
            edges = PATTERNS[cfg.pattern]
            if relabel_patterns:
                edges = relabel(edges, rng)
            path = workdir / f"{label}-{i}.el"
            path.write_text(edge_list_text(edges), encoding="utf-8")
            out.append(Job(cfg, cfg.argv(str(path), rng)))
        rng.shuffle(out)
        return out

    def learn(self, job: Job, blob: dict) -> list[str]:
        """Record what a warm-up job says about its configuration."""
        return []

    def check(self, job: Job, blob: dict) -> list[str]:
        """Problems with one job's output (empty when correct)."""
        raise NotImplementedError

    def final_checks(self, seed: int) -> list[str]:
        return []


def _close(a, b, tol: float, relative: bool = False) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        scale = max(abs(a), abs(b), 1e-300) if relative else 1.0
        return abs(a - b) <= tol * scale
    return a == b


class Invariants(Workload):
    """The exact layers: subset scan, cover and matching solvers, rho.
    rho sets the median; the K34 and K1122 scans set the tail."""

    name = "invariants"
    pass_s = 7.0

    def __init__(self, regtail):
        super().__init__(regtail)
        self.base: dict[str, dict] = {}

    def make_configs(self) -> list[Config]:
        out = []
        for pattern in CORPUS:
            out.append(Config(f"rate:{pattern}", pattern, lambda path, rng: [
                "rate", "--file", path, "--delta", "1", "--n", "1e6", "--p", "1e-3"]))
            out.append(Config(f"invariants:{pattern}", pattern, lambda path, rng: [
                "invariants", "--file", path, "--delta", "1"]))
        return out

    @staticmethod
    def facts(job: Job, blob: dict) -> dict:
        if job.argv[0] == "rate":
            r = blob["rate_report"]
            return {"classification": r["classification"], "gamma": r["gamma"],
                    "constant": r["constant"], "rate": r["rate"]}
        return {"classification": blob.get("classification"), "gamma": blob.get("gamma"),
                "cover_number": blob.get("cover_number"), "P": blob.get("P"),
                "bad_edges": sum(len(v) for v in blob.get("bad_edges", {}).values()),
                "rho": blob.get("rho")}

    def learn(self, job: Job, blob: dict) -> list[str]:
        """Keep the base pattern's values, unless they contradict the
        expected class or a pinned value; then every job of this
        configuration fails its check."""
        facts = self.facts(job, blob)
        pattern = job.config.pattern
        problems = []
        if job.argv[0] == "rate" and facts["classification"] != CORPUS[pattern]:
            problems.append(f"{pattern} classified {facts['classification']}, "
                            f"expected {CORPUS[pattern]}")
        for key, want in PINNED.get(pattern, {}).items():
            if key in facts and not _close(facts[key], want, 1e-8):
                problems.append(f"{job.config.key}: {key} = {facts[key]!r}, expected {want!r}")
        if not problems:
            self.base[job.config.key] = facts
        return problems

    def check(self, job: Job, blob: dict) -> list[str]:
        base = self.base.get(job.config.key)
        if base is None:
            return [f"{job.config.key}: no trusted base values (warm-up failed)"]
        facts = self.facts(job, blob)
        return [f"{job.config.key}: {k} = {facts[k]!r}, base pattern gave {base[k]!r}"
                for k in base
                if not _close(facts[k], base[k], 1e-9, relative=(k == "rate"))]


HOLDER_INSTANCES = 1000  # criterion 8's setting and the CLI default
W0_K23 = ["--w0", "--gamma", "1/2", "--z", "1", "--w", "0"]
W1_K0 = ["--w1", "--d1", "4", "--d2", "1"]


class Holder(Workload):
    """The block-graphon contraction shared by holder.lhs_integral and
    graphons.hom_density; fractional does one weight_pair per pattern."""

    name = "holder"
    pass_s = 3.4

    def make_configs(self) -> list[Config]:
        out = [Config(f"holder:{pattern}", pattern, lambda path, rng: [
            "holder", "--file", path, "--instances", str(HOLDER_INSTANCES),
            "--resolution", "8", "--seed", _seed(rng)])
            for pattern in ("P3", "C4", "C5", "K23", "butterfly", "K0")]
        for pattern, flags in (("K23", W0_K23), ("K0", W1_K0)):
            out.append(Config(f"construct:{pattern}", pattern, lambda path, rng, flags=flags: [
                "construct", "--file", path, *flags, "--p-grid", "1e-2,1e-3,1e-4"]))
            out.append(Config(f"check-conditions:{pattern}", pattern, lambda path, rng, flags=flags: [
                "check-conditions", "--file", path, *flags, "--p", "1e-3", "--n", "1e9"]))
        return out

    def check(self, job: Job, blob: dict) -> list[str]:
        kind = job.argv[0]
        key = job.config.key
        if kind == "holder":
            h = blob["holder"]
            if h["instances"] != HOLDER_INSTANCES or h["violations"] != 0:
                return [f"{key}: {h['violations']} violations in {h['instances']} instances"]
            return []
        if kind == "construct":
            rows = blob["table"]
            bad = [r["p"] for r in rows
                   if not (isinstance(r["hom_ratio"], float) and math.isfinite(r["hom_ratio"])
                           and r["hom_ratio"] > 0)]
            if len(rows) != 3 or bad:
                return [f"{key}: {len(rows)} rows, bad hom_ratio at p in {bad}"]
            return []
        conditions = blob["conditions"]["conditions"]
        if len(conditions) != 10 or conditions["1"]["passed"] is not True:
            return [f"{key}: {len(conditions)} conditions, regularity passed = "
                    f"{conditions.get('1', {}).get('passed')}"]
        return []


SIM_TRIALS = 20
TREE = [(0, 1), (1, 2), (1, 3)]


class RegularMC(Workload):
    """The pure-Python regular sampler and backtracking counter: the exact
    pairing path (n=20, d=4) beside the repair path (n=24, d=6)."""

    name = "regular-mc"
    pass_s = 0.9
    sink_names = ("sim.sample_regular",)

    def make_configs(self) -> list[Config]:
        out = []
        for pattern, n, d in (("C4", 20, 4), ("C3", 24, 6), ("K23", 24, 6)):
            out.append(Config(f"simulate:{pattern}:n{n}d{d}", pattern,
                              lambda path, rng, n=n, d=d: [
                                  "simulate", "--file", path, "--n", str(n), "--d", str(d),
                                  "--delta", "0.5", "--trials", str(SIM_TRIALS),
                                  "--seed", _seed(rng)],
                              {"n": n, "d": d}))
        return out

    def check(self, job: Job, blob: dict) -> list[str]:
        key = job.config.key
        n, d = job.config.meta["n"], job.config.meta["d"]
        est = blob["tail_estimate"]
        problems = []
        if est["trials"] != SIM_TRIALS or not 0 <= est["hits"] <= SIM_TRIALS:
            problems.append(f"{key}: {est['hits']} hits in {est['trials']} trials")
        samples = [r for _, _, r in self.captured]
        if len(samples) != SIM_TRIALS:
            problems.append(f"{key}: {len(samples)} samples drawn, expected {SIM_TRIALS}")
        sim, Graph = self.rt.sim, self.rt.graphs.Graph
        tree = Graph(TREE)
        for g in samples:
            if g.n != n or g.degrees() != [d] * n:
                problems.append(f"{key}: a sample is not {d}-regular on {n} vertices")
                break
            if sim.hom_count(tree, g) != n * d ** len(TREE):
                problems.append(f"{key}: tree count differs from n d^e")
                break
        if samples:
            for k in (3, 4):
                if sim.hom_count(Graph(cycle(k)), samples[0]) != sim.cycle_hom_oracle(k, samples[0]):
                    problems.append(f"{key}: hom_count(C{k}) differs from the trace oracle")
        return problems


class Planted(Workload):
    """Tilted-model sampling and dense counting: the n^3 BLAS matmul, n^2
    Bernoulli draws and the per-edge loop of the K0 counter."""

    name = "planted"
    pass_s = 2.1
    sink_names = ("sim.hom_counts_dense",)

    def make_configs(self) -> list[Config]:
        k23 = lambda path, rng: ["plant", "--file", path, *W0_K23, "--n", "2000",
                                 "--p", "0.05", "--trials", "1", "--seed", _seed(rng)]
        k0 = lambda path, rng: ["plant", "--file", path, *W1_K0, "--n", "800",
                                "--p", "0.07", "--trials", "1", "--seed", _seed(rng)]
        # Criterion 10's setting twice per pass, so the median and the tail
        # both fall on it; the K0 job adds the per-edge counter loop.
        return [Config("plant:K23:a", "K23", k23), Config("plant:K23:b", "K23", k23),
                Config("plant:K0", "K0", k0)]

    def check(self, job: Job, blob: dict) -> list[str]:
        key = job.config.key
        pc = blob["planted_comparison"]
        problems = []
        if pc["trials"] != 1 or not all(isinstance(pc[k], float) and math.isfinite(pc[k])
                                        for k in ("hom_ratio", "injective_ratio",
                                                  "predicted_ratio")):
            problems.append(f"{key}: report not finite: {json.dumps(pc)}")
        counts = [r for _, _, r in self.captured]
        if len(counts) != 2:
            problems.append(f"{key}: {len(counts)} dense counts, expected 2")
        for hom, inj in counts:
            if not (math.isfinite(hom) and math.isfinite(inj) and 0 <= inj <= hom):
                problems.append(f"{key}: injective count {inj} vs all-maps count {hom}")
        return problems

    def final_checks(self, seed: int) -> list[str]:
        """The dense counter against backtracking on one graph small enough
        for both (n <= 64)."""
        sim, Graph = self.rt.sim, self.rt.graphs.Graph
        g = sim.sample_gnp(40, 0.25, [seed, 40])
        problems = []
        for name in ("K23", "K0"):
            pattern = Graph(relabel(PATTERNS[name], random.Random(f"dense:{seed}:{name}")))
            dense, _ = sim.hom_counts_dense(pattern, g.adjacency())
            exact = sim.hom_count(pattern, g)
            if dense != exact:
                problems.append(f"hom_counts_dense({name}) = {dense} but hom_count = {exact}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Invariants, Holder, RegularMC, Planted)}
