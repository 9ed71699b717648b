"""Benchmark of the fofe-wsd pipeline: seeded inputs, timed stages, checks.

Run from the repository root:

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 30 --trace 0

The benchmark is one closed-loop client in one process: it calls
``fofe_wsd.cli.main`` for ``train``, ``build``, ``predict`` and ``eval`` one
after the other, with no threads or processes of its own. The program is
imported from ``src/`` of the checkout and sees only the generated input
files.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
in rounds, while they fit in ``--seconds`` (at least ``MIN_ROUNDS``): each
round sets up and runs every stage, so each metric's samples spread over
the whole run. The CPU of a shared machine changes speed under the run, so
every timing is scaled to a fixed reference speed by a probe that times a
fixed snippet while the stage runs (``SpeedProbe``); the raw wall medians
are printed next to the scaled ones. Each metric is the median over its
samples:

* ``setup_s``: a fresh import of the ``fofe_wsd`` package plus generating
  the inputs (numpy is imported once, before);
* ``train_examples_per_s``: corpus tokens x epochs / ``train`` time;
* ``build_instances_per_s``: labeled train instances / ``build`` time;
* ``predict_instances_per_s``: test instances / ``predict`` time;
* ``pipeline_s``: sum of the four median stage times;
* ``peak_rss_mb``: peak resident memory of this process;
* ``micro_f1``: from the report; ``train_final_loss``: last line of
  ``<checkpoint>.log``.

``--trace 1`` runs one warm-up pass, then pairs of an untraced and a
traced pass over the four stages, in alternating order (as many pairs as fit in ``--seconds``, at
least one), and reports the per-layer metrics of ``BENCHMARK.json``: the
median over traced passes, in unscaled wall seconds. The traced pass wraps each layer's public
functions from outside (see ``tracing.py``); the spans of the last one go
to ``spans.tsv`` in the work directory.

Every stage call and every output check counts in ``attempted``; each one
that fails counts in ``failed``, so ``failed / attempted`` is the failed
ratio. The checks: every stage exits 0; repeated stages write identical
bytes; every set-up of one seed generates identical inputs; one prediction
per test instance; the report covers every instance
(``attempted == total``); ``synthetic`` reaches micro F1 >= 0.90 and its
seed-0 inputs still hash to the recorded digest; in a traced run the
checkpoint and predictions of the traced pass equal the untraced ones byte
for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show each
metric with its unit, the repetition counts and a machine block.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
STAGES = ("train", "build", "predict", "eval")
MIN_ROUNDS = 3
ROUND_STAGE_S = 1.0
PROBE_INTERVAL_S = 0.05
PROBE_MIN = 5
# Probe time on an uncontended core of the reference machine (2-vCPU Xeon
# at 2.1 GHz, numpy 2.4); scaled timings read as seconds on that machine.
REF_PROBE_S = 80e-6
SYNTHETIC_MIN_F1 = 0.90
GENERATORS = {
    "synthetic": lambda outdir, seed, cli: workloads.synthetic(outdir, seed, cli.main),
    "wide-vocab": lambda outdir, seed, cli: workloads.wide_vocab(outdir, seed),
    "wsd-lemmas": lambda outdir, seed, cli: workloads.wsd_lemmas(outdir, seed),
}
# What each stage writes; repeated calls must write the same bytes.
STAGE_OUTPUT = {"train": "model.fofe", "build": "classifiers.fwsd", "predict": "predictions.tsv", "eval": "report.tsv"}


class Tally:
    """Stage calls and output checks attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def import_program():
    """Fresh import of ``fofe_wsd`` from the checkout's ``src``; returns ``cli``."""
    src = ROOT / "src"
    if not (src / "fofe_wsd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'fofe_wsd'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "fofe_wsd" or m.startswith("fofe_wsd.")]:
        del sys.modules[name]
    cli = importlib.import_module("fofe_wsd.cli")
    if Path(cli.__file__).resolve().parent != (src / "fofe_wsd").resolve():
        raise SystemExit(f"perfbench: fofe_wsd imported from {cli.__file__}, not from {src}")
    return cli


def setup(name: str, seed: int, inputs: Path):
    """One timed set-up: fresh program import plus input generation."""
    shutil.rmtree(inputs, ignore_errors=True)
    t0 = time.perf_counter()
    cli = import_program()
    workload = GENERATORS[name](inputs, seed, cli)
    return cli, workload, time.perf_counter() - t0


def stage_argv(stage: str, workload: workloads.Workload, outdir: Path) -> list[str]:
    return [
        stage, "-c", str(workload.config),
        "--checkpoint", str(outdir / STAGE_OUTPUT["train"]),
        "--store", str(outdir / STAGE_OUTPUT["build"]),
        "--predictions", str(outdir / STAGE_OUTPUT["predict"]),
        "--report", str(outdir / STAGE_OUTPUT["eval"]),
    ]


def run_stage(main, argv: list[str]) -> tuple[int, float]:
    """Call the CLI entry point once; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_outputs(tally: Tally, workload: workloads.Workload, outdir: Path) -> dict[str, float]:
    """Checks on one pass's outputs; returns micro F1 and final training loss."""
    found: dict[str, float] = {}
    predictions = outdir / STAGE_OUTPUT["predict"]
    lines = predictions.read_text(encoding="utf-8").splitlines() if predictions.is_file() else []
    tally.check(len(lines) == workload.test_instances,
                f"{len(lines)} predictions for {workload.test_instances} test instances")
    report = outdir / STAGE_OUTPUT["eval"]
    fields = report.read_text(encoding="utf-8").splitlines()[0].split("\t") if report.is_file() else []
    if tally.check(len(fields) == 7 and fields[0] == "all", "report has no 'all' line"):
        tally.check(fields[1] == fields[3], f"report attempted {fields[1]} != total {fields[3]}")
        found["micro_f1"] = float(fields[6])
        if workload.name == "synthetic":
            tally.check(found["micro_f1"] >= SYNTHETIC_MIN_F1,
                        f"synthetic micro F1 {found['micro_f1']} < {SYNTHETIC_MIN_F1}")
    loss_log = outdir / (STAGE_OUTPUT["train"] + ".log")
    last = loss_log.read_text(encoding="utf-8").splitlines()[-1:] if loss_log.is_file() else []
    if tally.check(len(last) == 1 and "\t" in last[0], "no loss line in the training log"):
        found["train_final_loss"] = float(last[0].split("\t")[1])
    return found


def check_synthetic_digest(tally: Tally, cli) -> None:
    """gen-synthetic must still produce the recorded seed-0 inputs."""
    canary = WORK / "synthetic-seed0"
    shutil.rmtree(canary, ignore_errors=True)
    workloads.synthetic(canary, 0, cli.main)
    digest = workloads.inputs_digest(canary)
    tally.check(digest == workloads.SYNTHETIC_SEED0_SHA256,
                f"gen-synthetic seed-0 inputs hash to {digest}, recorded {workloads.SYNTHETIC_SEED0_SHA256}")
    shutil.rmtree(canary, ignore_errors=True)


_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((64, 64))
_PROBE_VECTOR = _PROBE_RNG.standard_normal(64)


def _probe_body() -> np.ndarray:
    # Small numpy steps in a Python loop, like the FOFE recursion and the
    # per-instance forward pass.
    z = np.zeros(64)
    for _ in range(20):
        z = 0.7 * z + _PROBE_VECTOR
        z = np.maximum(z @ _PROBE_MATRIX, 0.0) * 0.01
    return z


class SpeedProbe:
    """Samples the CPU's speed while the stages run.

    The cores of the 2-vCPU machine this was built on swing between two
    speeds about 1.8x apart, for seconds to minutes at a time (another
    tenant sharing the physical core), which moves a run's wall times by up
    to 40%. While armed, a SIGALRM interval timer runs ``_probe_body`` every
    ``PROBE_INTERVAL_S`` (after one untimed pass that warms its caches) and
    records how long it took. No thread or process is started.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        _probe_body()
        t0 = time.perf_counter()
        _probe_body()
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, lo: int, hi: int) -> float:
        """Reference over measured speed for probes ``lo:hi`` (those taken
        during one block of repetitions), widened to at least ``PROBE_MIN``
        probes; the mean leaves out the fastest and slowest 5%."""
        while hi - lo < PROBE_MIN and (lo > 0 or hi < len(self.seconds)):
            lo, hi = max(0, lo - 1), min(len(self.seconds), hi + 1)
        ordered = sorted(self.seconds[lo:hi])
        cut = len(ordered) // 20
        return REF_PROBE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def measure(name: str, seed: int, seconds: float, tally: Tally, work: Path):
    """Rounds of set-ups plus every stage, while they fit in ``seconds``.

    The machine's speed drifts over seconds, so the stages are interleaved
    rather than timed one after the other, and each block of repetitions is
    scaled to the reference speed by the probes taken during it. A stage
    (or set-up) shorter than ``ROUND_STAGE_S`` repeats within a round (the
    count is fixed after the first round) to give more samples. Returns
    (workload, {stage: [(wall seconds, scaled seconds)]}), with the set-ups
    under ``"setup"``, or None when a stage failed.
    """
    outdir = work / "out"
    outdir.mkdir(parents=True)
    with SpeedProbe() as probe:
        measured = _rounds(name, seed, seconds, tally, work, outdir, probe)
    if measured is None:
        return None
    workload, blocks = measured
    samples: dict[str, list[tuple[float, float]]] = {}
    for stage, lo, hi, walls in blocks:
        scale = probe.scale(lo, hi)
        samples.setdefault(stage, []).extend((wall, wall * scale) for wall in walls)
    return workload, samples


def _rounds(name: str, seed: int, seconds: float, tally: Tally, work: Path, outdir: Path, probe: SpeedProbe):
    """Returns (workload, blocks): each block one stage's repetitions in one
    round, as (stage, first probe, end probe, wall seconds)."""
    blocks: list[tuple[str, int, int, list[float]]] = []
    lo = len(probe.seconds)
    cli, workload, setup_s = setup(name, seed, work / "inputs")
    blocks.append(("setup", lo, len(probe.seconds), [setup_s]))
    first_inputs = workloads.inputs_digest(work / "inputs")
    written: dict[str, set] = {stage: set() for stage in STAGES}
    reps = {"setup": max(1, int(ROUND_STAGE_S / setup_s)), **dict.fromkeys(STAGES, 1)}
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        if rounds:
            lo, walls = len(probe.seconds), []
            for _ in range(reps["setup"]):
                cli, _, setup_s = setup(name, seed, work / "inputs-again")
                walls.append(setup_s)
                tally.check(workloads.inputs_digest(work / "inputs-again") == first_inputs,
                            "set-ups of one seed generated different inputs")
            blocks.append(("setup", lo, len(probe.seconds), walls))
        for stage in STAGES:
            argv = stage_argv(stage, workload, outdir)
            lo, walls = len(probe.seconds), []
            for _ in range(reps[stage]):
                rc, dt = run_stage(cli.main, argv)
                if not tally.check(rc == 0, f"{stage} exited {rc}"):
                    return None
                walls.append(dt)
                written[stage].add(file_digest(outdir / STAGE_OUTPUT[stage]))
            blocks.append((stage, lo, len(probe.seconds), walls))
            if not rounds:
                reps[stage] = max(1, int(ROUND_STAGE_S / dt))
        rounds += 1
        round_s = time.perf_counter() - round_start
    for stage in STAGES:
        tally.check(len(written[stage]) == 1, f"{stage} wrote different bytes on repetition")
    return workload, blocks


def end_to_end(workload, samples, found) -> dict[str, float]:
    """Median scaled times turned into the end-to-end metrics."""
    median = {stage: statistics.median(scaled for _, scaled in s) for stage, s in samples.items()}
    setup_s = median.pop("setup")
    return {
        "setup_s": setup_s,
        "train_examples_per_s": workload.examples_per_epoch * workload.epochs / median["train"],
        "build_instances_per_s": workload.train_instances / median["build"],
        "predict_instances_per_s": workload.test_instances / median["predict"],
        "pipeline_s": sum(median.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **found,
    }


def run_pass(cli, workload: workloads.Workload, outdir: Path, tally: Tally, tracer=None) -> float | None:
    """Every stage once; returns the summed stage seconds, or None on failure."""
    outdir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        total = 0.0
        for stage in STAGES:
            main = cli.main if tracer is None else functools.partial(tracer.call, f"cli.{stage}", cli.main)
            rc, dt = run_stage(main, stage_argv(stage, workload, outdir))
            if not tally.check(rc == 0, f"{stage} exited {rc}"):
                return None
            total += dt
        return total
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_passes(cli, workload: workloads.Workload, seconds: float, tally: Tally, work: Path) -> dict[str, float]:
    """After one untimed warm-up pass, pairs of an untraced and a traced
    pass, in alternating order, while they fit in ``seconds``; returns the
    median per-layer metrics."""
    pipeline_s: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    outdirs = {False: work / "untraced", True: work / "traced"}
    start = time.perf_counter()
    if run_pass(cli, workload, work / "warm-up", tally) is None:
        return {}
    pair_s = 0.0
    while not layers or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        tracer = tracing.Tracer()
        for traced in ((False, True) if len(layers) % 2 == 0 else (True, False)):
            total = run_pass(cli, workload, outdirs[traced], tally, tracer if traced else None)
            if total is None:
                return {}
            pipeline_s[traced].append(total)
            check_outputs(tally, workload, outdirs[traced])
        for stage in ("train", "predict"):
            a, b = (file_digest(outdirs[t] / STAGE_OUTPUT[stage]) for t in (False, True))
            tally.check(a is not None and a == b, f"traced and untraced {STAGE_OUTPUT[stage]} differ")
        layers.append(tracer.layer_metrics())
        pair_s = time.perf_counter() - pair_start
    tracer.write(work / "spans.tsv")
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.untraced_pipeline_s"] = statistics.median(pipeline_s[False])
    metrics["trace.overhead_ratio"] = statistics.median(pipeline_s[True]) / metrics["trace.untraced_pipeline_s"]
    return metrics


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS library numpy was built with and its thread count, left at its default."""
    info: dict = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def machine(workload: str, seed: int) -> dict:
    src = ROOT / "src" / "fofe_wsd"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "seeds": {workload: seed},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    if args.workload == "synthetic":
        check_synthetic_digest(tally, import_program())
    values: dict[str, float] = {}
    reps = ""
    if args.trace:
        cli, workload, _ = setup(args.workload, args.seed, work / "inputs")
        values = traced_passes(cli, workload, args.seconds, tally, work)
    else:
        measured = measure(args.workload, args.seed, args.seconds, tally, work)
        if measured is not None:
            workload, samples = measured
            values = end_to_end(workload, samples, check_outputs(tally, workload, work / "out"))
            reps = "\n".join(
                f"  {stage:<8} n={len(t):<4} wall median={statistics.median(w for w, _ in t):.4f}s "
                f"scaled median={statistics.median(x for _, x in t):.4f}s" for stage, t in samples.items())

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    tally.check(len(metrics) == len(wanted), "metrics missing: " + ", ".join(
        m["name"] for m in wanted if m["name"] not in values))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    if reps:
        print(f"repetitions, interleaved over the run:\n{reps}")
    for name, m in metrics.items():
        kind = "computed" if name in tracing.COMPUTED else "measured"
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<8} {kind}")
    print(f"  {'failed_ratio':<36} {tally.failed:>8}/{tally.attempted:<5} ratio    measured")
    print("machine " + json.dumps(machine(args.workload, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
