"""Seeded invocation lists for the three workloads.

metriclie sees only argv and the JSON files written here (exact "p/q"
strings).  Each workload hands out whole rounds: a round is a fixed list of
invocations, and a run attempts whole rounds only.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import exact

S_END = "1"
STEP = "0.005"
ISOMETRY_SAMPLES_PER_PAIR = 30


@dataclass
class Invocation:
    argv: list
    kind: str
    meta: dict = field(default_factory=dict)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


class Invariants:
    """report and classify on fresh basis changes of 4-dim algebras.

    A round holds report and classify on DRAWS basis changes of each of the
    five metric sources and the three sources with a 3-dim invariant-form
    space (36 of the 96 invocations walk the 125-point determinant grid),
    plus one classify on a source with a 6-dim space (15,625 points), h3+R
    and aff+R2 in turn.  That one call costs about as much as the rest of
    the round; its basis change depends on the round index only, so every
    seed pays the same for it.  Every invocation gets a new algebra, so no
    algebra is seen twice in a run and a per-algebra cache always misses.
    The cost of a call depends on its basis change by up to 2x, so DRAWS is
    large enough that the median latency moves little from seed to seed.
    """

    name = "invariants"
    repeats = False
    DRAWS = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _job(self, j, src, verb, P):
        path = os.path.join(self.workdir, f"inv-{j:02d}.json")
        _write_json(path, exact.algebra_file(
            exact.source_algebra(src).changed(P)))
        return Invocation([verb, path], verb, {"source": src})

    def round(self, r):
        rng = random.Random(f"invariants:{self.seed}:{r}")
        jobs = [(src, verb) for src in exact.METRIC_SOURCES + exact.GRID_SOURCES
                for verb in ("report", "classify")] * self.DRAWS
        rng.shuffle(jobs)
        out = [self._job(j, src, verb, exact.random_basis_change(rng, 4))
               for j, (src, verb) in enumerate(jobs)]
        grid6 = exact.GRID6_SOURCES[r % len(exact.GRID6_SOURCES)]
        P = exact.random_basis_change(random.Random(f"invariants:grid6:{r}"), 4)
        out.insert(rng.randrange(len(out) + 1),
                   self._job(len(out), grid6, "classify", P))
        return out


class Geometry:
    """geometry on basis-changed (algebra, metric) files and isometry checks.

    The files are drawn once per run and reused every round: VARIANTS basis
    changes each of g0 and g1 with gmatrix0, r+sl2 and r+so3 with killing+1,
    and H3_VARIANTS of h3 with h0, h1 and h2.  The isometry checks of G0 and
    G1 come as two pairs of calls per model, the samples of a pair adding up
    to 30, so a round checks 120 samples; with the three H3 isotropy calls a
    round has 56 invocations.  Sorted by cost, the round is 24 cheap calls
    (H3), the eight G0/G1 calls and 24 dear ones (ad-invariant geometry), so
    the median lands in the middle of the G0/G1 group, whose sample counts
    are symmetric about 15.  The cost of an ad-invariant call depends on its basis change by up
    to 2.5x; 24 of them keep the round's cost nearly the same on every seed.
    """

    name = "geometry"
    repeats = True
    VARIANTS = 6
    H3_VARIANTS = 7

    def __init__(self, seed, workdir):
        rng = random.Random(f"geometry:{seed}")
        jobs = []
        for src, dim in (("g0", 4), ("g1", 4), ("r+sl2", 4), ("r+so3", 4),
                         ("h3", 3)):
            for v in range(self.H3_VARIANTS if src == "h3" else self.VARIANTS):
                P = exact.random_basis_change(rng, dim)
                metrics = {m: exact.mat_mul(
                    exact.mat_mul(exact.transpose(P), exact.source_metric(src, m)),
                    P) for m in exact.SOURCES[src][2]}
                path = os.path.join(workdir, f"geo-{src}-{v}.json")
                _write_json(path, exact.algebra_file(
                    exact.source_algebra(src).changed(P), metrics))
                for m in metrics:
                    tail = [m] if rng.random() < 0.5 else ["--metric", m]
                    jobs.append(Invocation(
                        ["geometry", path] + tail, "geometry",
                        {"source": src, "metric": m, "P": P}))
        for model in ("G0", "G1", "G0", "G1"):
            n = rng.randint(12, 18)
            for samples in (n, ISOMETRY_SAMPLES_PER_PAIR - n):
                jobs.append(Invocation(
                    ["isometry", model, "--samples", str(samples),
                     "--seed", str(rng.randrange(10**6))],
                    "isometry", {"model": model, "samples": samples}))
        for m in ("h0", "h1", "h2"):
            jobs.append(Invocation(["isometry", f"H3:{m}"], "isometry",
                                   {"model": f"H3:{m}"}))
        rng.shuffle(jobs)
        self.jobs = jobs

    def round(self, r):
        return self.jobs


def _num(x):
    return f"{x:.4f}"


class Geodesics:
    """geodesic on G0, G1, H3:h1 and H3:h2 with seeded frame coefficients and
    base points; the CSV goes to a file.  CONDITIONS initial conditions per
    model, reused every round.  A G0 or G1 call also runs the closed-form
    comparison and costs about twice an H3 one; with twice as many H3 calls
    the median latency falls inside the H3 group, not in the gap between the
    two.  Arguments with a leading minus sign go after `--` or as
    `--base=...`.
    """

    name = "geodesics"
    repeats = True
    CONDITIONS = {"G0": 3, "G1": 3, "H3:h1": 6, "H3:h2": 6}

    def __init__(self, seed, workdir):
        rng = random.Random(f"geodesics:{seed}")
        jobs = []
        for model, count in self.CONDITIONS.items():
            dim = 3 if model.startswith("H3") else 4
            for _ in range(count):
                if dim == 4:
                    a = [rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)]
                else:
                    a = []
                a += [rng.uniform(-1.5, 1.5) for _ in range(dim - len(a))]
                base = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
                a_txt = ",".join(_num(v) for v in a)
                base_txt = ",".join(_num(v) for v in base)
                path = os.path.join(workdir, f"geo-{len(jobs):02d}.csv")
                argv = ["geodesic", "--s-end", S_END, "--step", STEP,
                        "--out", path, f"--base={base_txt}", model, "--", a_txt]
                jobs.append(Invocation(argv, "geodesic", {
                    "model": model, "path": path,
                    "a": [float(v) for v in a_txt.split(",")],
                    "base": [float(v) for v in base_txt.split(",")],
                    "s_end": float(S_END), "step": float(STEP)}))
        rng.shuffle(jobs)
        self.jobs = jobs

    def round(self, r):
        return self.jobs


WORKLOADS = {w.name: w for w in (Invariants, Geometry, Geodesics)}
