"""pcmrank benchmark: one seeded, closed-loop, single-process workload per run.

    python3 bench/run.py --workload {audit_rgm,hunt_witness,cli_session}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a pcmrank checkout; it imports pcmrank from that
checkout's ``src/``.  The op list of a (workload, seed) is executed in
whole passes until ``--seconds`` have gone by, one op at a time.  Op
times are CPU times normalized for the machine's drifting speed by a
probe that samples it every 10 ms (``calib``).  Each op's output is
checked outside the timed interval; at the default seed every op's
output digest must also match ``golden/<workload>.json``.

``--trace 0`` prints the end-to-end metrics and interleaves twelve
fresh-interpreter cold starts (``--setup-only``) through the run for
``setup_s``, each rescaled by reference starts around it.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
of the traced ones.  Human-readable lines come first; the last line of
stdout is the JSON result.  Raw wall times, kernel slices and spans go
to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes are salted per process, and the salt alone moved the
    # hunt_witness median latency by up to a tenth between runs of one seed
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import json
import resource
import statistics
import subprocess
import time

import env  # noqa: F401  (pins BLAS threads and puts src/ on sys.path before numpy)

import numpy as np

import calib
from tracing import COUNT_SUFFIXES, Tracer, layer_metrics, layer_units
from workloads import DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, Outcome

COLD_STARTS = 12
#: median wall time of the reference start (``ColdStarts.REF_ARGV``) on the
#: machine that C_REF_S was measured on
REF_START_S = 0.15
WARMUP_S = 1.0
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class ColdStarts:
    """Times fresh interpreters that import pcmrank and build the op list,
    one at a time, at evenly spaced moments of the run.  The speed probe
    is paused meanwhile, so the child has the machine to itself.

    Each cold start is bracketed by two reference starts, interpreters
    that only import numpy, and is reported as its ratio to their mean
    times REF_START_S.  The calibration kernel does not track process
    start-up (rescaling by it made cold starts spread more), but a
    reference start does.
    """

    REF_ARGV = [sys.executable, "-c", "import numpy"]

    def __init__(self, wl, seed, seconds, probe):
        self.argv = [sys.executable, __file__, "--workload", wl.name,
                     "--seed", str(seed), "--setup-only"]
        self.due = [seconds * (k + 0.5) / COLD_STARTS for k in range(COLD_STARTS)]
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (wall seconds, reference seconds)

    @staticmethod
    def _wall(argv) -> float:
        start = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls in 50 ms sleeps,
        # which quantizes the measured wall time
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def run_due(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.probe.pause()
            before = self._wall(self.REF_ARGV)
            wall = self._wall(self.argv)
            after = self._wall(self.REF_ARGV)
            self.samples.append((wall, (before + after) / 2.0))
            self.probe.resume()

    def setup_s(self) -> float:
        return REF_START_S * statistics.median(w / ref for w, ref in self.samples)


def load_golden(wl) -> list[str] | None:
    path = GOLDEN_DIR / f"{wl.name}.json"
    return json.loads(path.read_text())["digests"] if path.is_file() else None


def judge(wl, op, result, golden=None) -> Outcome:
    """The workload's own check, plus the golden digest when one is given."""
    outcome = wl.check(op, result)
    if golden is not None and outcome.digest != golden[op.index]:
        return Outcome(outcome.digest, "digest differs from golden", False)
    return outcome


def _call(wl, op):
    try:
        return wl.run(op)
    except Exception as exc:  # a raising op is counted as failed, not fatal
        return exc


def execute(wl, ops, seed, seconds, probe, tracer=None, cold=None):
    """Run whole passes over ``ops`` until ``seconds`` have gone by and
    at least ``wl.min_passes`` passes are done, so that the tail
    percentile always has ten samples beyond it.

    Returns one record per timed op and, with a tracer, the per-layer
    metrics of each traced pass; passes then alternate untraced and
    traced, at least one of each.
    """
    golden = load_golden(wl) if seed == DEFAULT_SEED else None
    records, layers = [], []

    deadline = time.perf_counter() + WARMUP_S
    for op in ops:
        wl.check(op, _call(wl, op))
        if time.perf_counter() >= deadline:
            break

    probe.start()
    begin = time.perf_counter()
    pass_no = 0
    try:
        while True:
            traced = tracer is not None and pass_no % 2 == 1
            if traced:
                tracer.install()
            for op in ops:
                if cold is not None:
                    cold.run_due(time.perf_counter() - begin)
                if traced:
                    tracer.op, tracer.recording = op.index, True
                wall = time.perf_counter()
                start = calib.now()
                result = _call(wl, op)
                end = calib.now()
                wall = time.perf_counter() - wall
                if traced:
                    tracer.recording = False
                outcome = judge(wl, op, result, golden)
                records.append({"pass": pass_no, "op": op.index, "traced": traced,
                                "start": start, "end": end, "wall": wall,
                                "digest": outcome.digest,
                                "failure": outcome.failure, "correct": outcome.correct})
            if traced:
                tracer.uninstall()
                probe.sample()  # so the clock covers the pass's last span
                layers.append(layer_metrics(tracer.spans, probe.clock()))
                if len(layers) == 1:
                    tracer.dump(env.OUT / f"spans-{wl.name}-s{seed}.jsonl")
                tracer.clear()
            pass_no += 1
            min_passes = 2 if tracer is not None else wl.min_passes
            if pass_no >= min_passes and time.perf_counter() - begin >= seconds:
                break
        if cold is not None:
            cold.run_due(float("inf"))  # a slow machine still takes every sample
    finally:
        probe.stop()
    return records, layers


def _tail(values: np.ndarray, highest: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest candidate
    percentile not above ``highest`` with MIN_BEYOND samples beyond it."""
    for pct in (p for p in TAIL_CANDIDATES if p <= highest):
        value = float(np.percentile(values, pct))
        beyond = int(np.sum(values > value))
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    return 100.0, float(values.max()), 0


def _pass_seconds(records, norm) -> float:
    """Normalized seconds for one pass: each op's median over the passes."""
    per_op = {}
    for r, t in zip(records, norm):
        per_op.setdefault(r["op"], []).append(t)
    return float(sum(np.median(ts) for ts in per_op.values()))


def _consistent(records) -> bool:
    """Every op gave the same digest in every pass."""
    seen = {}
    return all(seen.setdefault(r["op"], r["digest"]) == r["digest"] for r in records)


def _layer_result(records, norm, layers) -> tuple[dict, bool]:
    """Per-layer metrics: counts from the first traced pass (they must
    repeat in every later one), times averaged over the traced passes."""
    traced = np.array([r["traced"] for r in records])
    overhead = (norm[~traced].sum() / (~traced).sum()) / (norm[traced].sum() / traced.sum())
    repeat = all(later[k] == layers[0][k] for later in layers[1:]
                 for k in later if k.endswith(COUNT_SUFFIXES))
    metrics = {}
    for name, unit in layer_units().items():
        if name == "trace.overhead_ratio":
            value = float(overhead)
        elif unit == "count":
            value = layers[0][name]
        else:
            value = float(statistics.mean(layer[name] for layer in layers))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the op list and exit (one cold-start sample)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the output digests of one pass at the default seed")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.setup_only:
        wl.build(args.seed, env.OUT / "cold" / wl.name)
        return 0

    env.OUT.mkdir(exist_ok=True)
    ops = wl.build(args.seed, env.OUT / f"{wl.name}-s{args.seed}")

    if args.write_golden:
        if args.seed != DEFAULT_SEED:
            parser.error("--write-golden records the default seed only")
        digests = [wl.check(op, _call(wl, op)).digest for op in ops]
        path = GOLDEN_DIR / f"{wl.name}.json"
        path.write_text(json.dumps({"seed": args.seed, "digests": digests}, indent=0) + "\n")
        print(f"wrote {len(digests)} digests to {path}")
        return 0

    probe = calib.SpeedProbe()
    tracer = Tracer() if args.trace else None
    cold = None if args.trace else ColdStarts(wl, args.seed, args.seconds, probe)
    records, layers = execute(wl, ops, args.seed, args.seconds, probe, tracer, cold)

    clock = probe.clock()
    starts = np.array([r["start"] for r in records])
    ends = np.array([r["end"] for r in records])
    wall = np.array([r["wall"] for r in records])
    norm = clock(ends) - clock(starts)
    failed = [r for r in records if r["failure"]]
    correct = all(r["correct"] for r in records) and _consistent(records)
    print(f"workload {wl.name} seed {args.seed}: {records[-1]['pass'] + 1} passes "
          f"of {len(ops)} ops, {len(records)} timed, {len(failed)} failed")
    for r in failed:
        if r["pass"] == 0:
            print(f"  failed op {r['op']} ({ops[r['op']].label}): {r['failure']}")
    print(f"c_ref {1e6 * calib.C_REF_S:.1f} us, median kernel slice "
          f"{1e6 * probe.median_slice_s():.1f} us over {len(probe.slices)} slices, "
          f"raw ops/s {len(wall) / wall.sum():.6g}")

    if args.trace:
        metrics, repeat = _layer_result(records, norm, layers)
        correct = correct and repeat
        print(f"{len(layers)} traced passes; counts repeat in each: {repeat}")
    else:
        pct, tail_s, beyond = _tail(norm, wl.tail_pct)
        metrics = {
            "setup_s": {"value": cold.setup_s(), "unit": "s"},
            "ops_per_s": {"value": len(ops) / _pass_seconds(records, norm), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * float(np.median(norm)), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        walls = [wall_s for wall_s, _ in cold.samples]
        print(f"latency_tail_ms is p{pct:g} with {beyond} samples beyond it; "
              f"setup_s is the median of {len(walls)} cold starts relative to "
              f"reference starts (raw median {statistics.median(walls):.4f} s)")
        print(f"error_ratio {len(failed) / len(records):.6g} ratio "
              f"({len(failed)} of {len(records)} ops failed)")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"correct {correct}")

    side = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "c_ref_s": calib.C_REF_S, "slices": probe.slices,
            "cold_starts": cold.samples if cold else [],
            "records": [dict(r, norm_s=float(n)) for r, n in zip(records, norm)],
            "layers": layers}
    (env.OUT / f"raw-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(side))
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
