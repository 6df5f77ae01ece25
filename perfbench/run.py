"""Benchmark metriclie end to end through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  One
process, one thread, closed loop: each `metriclie.cli.main(argv)` call
starts when the previous one returns, and a run attempts whole rounds of
its workload until `--seconds` have passed (and, untraced, at least 100
invocations are timed, so the 90th percentile has ten samples above it).
Untraced, a workload that repeats its inputs first runs one warm-up round,
checked but not timed.  Times are scaled to a reference host speed
(hostspeed.py), which discounts the host's changing speed; the wall-clock
figures are printed beside them.  Outputs are checked after the timed
loop.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

from hostspeed import ReferenceClock, scaled_start

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_INVOCATIONS = 100
SETUP_REPEATS = 12
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import metriclie;"
              " metriclie.catalog.get('g0')")


def time_setup():
    """(reference, wall) seconds of a fresh interpreter importing metriclie
    and making the first catalog lookup; see hostspeed.py."""
    return scaled_start(["-c", SETUP_CODE, SRC])


class SetupSampler:
    """SETUP_REPEATS set-up times spread over the run: one after any round
    that ends `spacing` seconds or more after the previous sample, the rest
    after the timed loop.  Spread out, they see the same mix of fast and
    slow host phases as the invocations do, not one moment of it."""

    def __init__(self, spacing):
        self.spacing = spacing
        self.times = []
        self.last = -math.inf
        time_setup()  # discarded: the first start may write the bytecode cache

    def take(self):
        self.times.append(time_setup())
        self.last = time.perf_counter()

    def between_rounds(self):
        if len(self.times) < SETUP_REPEATS and \
                time.perf_counter() - self.last >= self.spacing:
            self.take()

    def medians(self):
        """Median set-up time, scaled and on the wall clock."""
        while len(self.times) < SETUP_REPEATS:
            self.take()
        return tuple(statistics.median(t) for t in zip(*self.times))


def invoke(cli, argv):
    """One CLI call; returns (error or None, stdout).  stderr is discarded:
    the exit code and the checks decide."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except SystemExit as exc:
            error = f"usage error (exit {exc.code})"
        except Exception as exc:  # noqa: BLE001  (any traceback is a failure)
            error = f"{type(exc).__name__}: {exc}"
    return error, out.getvalue()


class Record:
    """One invocation.  `wrong` marks output that failed a check, as
    opposed to a call that exited non-zero or raised.  `latency` is on the
    reference clock, `wall` on the wall clock (see hostspeed.py)."""

    __slots__ = ("inv", "error", "wrong", "out", "csv", "latency", "wall",
                 "timed")

    def __init__(self, inv, error, out, csv, latency, wall, timed):
        self.inv, self.error, self.wrong = inv, error, False
        self.out, self.csv = out, csv
        self.latency, self.wall, self.timed = latency, wall, timed

    def reject(self, reason):
        self.error, self.wrong = reason, True


def run_loop(cli, workload, seconds=None, rounds=None, min_invocations=0,
             between_rounds=None, clock=None, warmup=False):
    """Whole rounds until `seconds` (and `min_invocations` timed records)
    or `rounds` are done; `between_rounds()`, if given, runs after each
    round, untimed.  With `warmup`, round 0 of a repeating workload fills
    the program's caches: its records are checked but not `timed`, and the
    `seconds` start after it.

    Repeating workloads keep full outputs of round 0 only; later rounds must
    reproduce them exactly.  Invocations are timed on `clock` (a new
    ReferenceClock if None), which runs during the rounds only.
    """
    records = []
    first = []
    deadline = time.perf_counter() + (seconds or 0)
    clock = clock or ReferenceClock()
    warmup = warmup and workload.repeats
    timed = 0
    r = 0
    while True:
        clock.start()
        try:
            for j, inv in enumerate(workload.round(r)):
                ref0, wall0 = clock.now()
                error, out = invoke(cli, inv.argv)
                ref1, wall1 = clock.now()
                csv = None
                if error is None and "path" in inv.meta:
                    with open(inv.meta["path"], "rb") as fh:
                        csv = fh.read()
                rec = Record(inv, error, out, csv, ref1 - ref0, wall1 - wall0,
                             timed=not (warmup and r == 0))
                timed += rec.timed
                if workload.repeats and r > 0:
                    if error is None and (out, csv) != first[j]:
                        rec.reject("output differs from the first round")
                    rec.out = rec.csv = None
                elif workload.repeats:
                    first.append((out, csv))
                records.append(rec)
        finally:
            clock.stop()
        r += 1
        if between_rounds:
            between_rounds()
        if warmup and r == 1:
            deadline = time.perf_counter() + (seconds or 0)
        if rounds is not None:
            if r >= rounds:
                return records, r
        elif time.perf_counter() >= deadline and timed >= min_invocations:
            return records, r


def check_records(records, checker):
    """Run the output checks; failing records get their reason as error."""
    for rec in records:
        if rec.error is None and rec.out is not None:
            try:
                reason = checker(rec.inv, rec.out, rec.csv)
            except Exception as exc:  # noqa: BLE001  (unparseable output)
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                rec.reject(f"check failed: {reason}")
    return [rec for rec in records if rec.error]


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(records, setup_s, rss_mb, clock="latency"):
    """The end-to-end metrics of the timed records, on the reference clock
    or, with clock="wall", on the wall clock."""
    records = [rec for rec in records if rec.timed]
    lat = [getattr(rec, clock) for rec in records]
    done = sum(1 for rec in records if rec.error is None)
    return {
        "ops_per_s": (done / sum(lat), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90(lat) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def replay_busy(workload, seed, rounds):
    """Busy time of the same rounds run untraced in a fresh interpreter, so
    that neither side starts with caches the other has filled."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--replay-rounds", str(rounds)],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])["busy_s"]


def per_layer(tracer, rounds, traced_busy, plain_busy):
    """Per-round totals from the traced run, plus the tracing overhead."""
    from tracing import SPAN_NAMES
    out = {}
    for idx, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls"] = (tracer.calls[idx] / rounds, "count")
        out[f"{span}.self_s"] = (tracer.self_s[idx] / rounds, "s")
    for name, value in tracer.counters.items():
        out[name] = (value / rounds, "count")
    out["trace.spans"] = (tracer.spans / rounds, "count")
    out["trace.overhead_s"] = ((traced_busy - plain_busy) / rounds, "s")
    out["trace.overhead_pct"] = (100.0 * (traced_busy / plain_busy - 1.0), "%")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay-rounds", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metriclie", "__init__.py")):
        print(f"error: no metriclie sources under {SRC}; run from the root of"
              " a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metriclie
    from metriclie import cli
    if not os.path.abspath(metriclie.__file__).startswith(SRC + os.sep):
        print(f"error: imported metriclie from {metriclie.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from checks import CHECKERS
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, args.workload +
                           ("-replay" if args.replay_rounds else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    checker = CHECKERS[args.workload]

    if args.replay_rounds:
        records, _ = run_loop(cli, make(args.seed, workdir),
                              rounds=args.replay_rounds)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"busy_s": sum(rec.latency for rec in records)}))
        return 0
    if not args.trace:
        setup = SetupSampler(args.seconds / SETUP_REPEATS)
        setup.take()
        records, rounds = run_loop(cli, make(args.seed, workdir),
                                   seconds=args.seconds,
                                   min_invocations=MIN_INVOCATIONS,
                                   between_rounds=setup.between_rounds,
                                   warmup=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_records(records, checker)
        setup_s, setup_wall = setup.medians()
        metrics = end_to_end(records, setup_s, rss_mb)
        wall = end_to_end(records, setup_wall, rss_mb, clock="wall")
    else:
        from tracing import Tracer
        clock = ReferenceClock()
        tracer = Tracer(clock=clock.reference)
        tracer.install()
        traced_main = cli.main

        def counted(argv):
            tracer.invocation += 1
            return traced_main(argv)

        records, rounds = run_loop(types.SimpleNamespace(main=counted),
                                   make(args.seed, workdir), seconds=args.seconds,
                                   clock=clock)
        tracer.uninstall()
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
        traced_busy = sum(rec.latency for rec in records)
        plain_busy = replay_busy(args.workload, args.seed, rounds)
        failures = check_records(records, checker)
        metrics = per_layer(tracer, rounds, traced_busy, plain_busy)

    for rec in failures[:5]:
        print(f"FAIL {' '.join(rec.inv.argv)}: {rec.error}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload}: {len(records)} invocations in {rounds} rounds,"
          f" {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        extra = ""
        if not args.trace and unit != "MiB":
            extra = f"  (wall clock: {wall[name][0]:.6g} {unit})"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": not any(rec.wrong for rec in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
