"""Record a baseline: run the benchmark over several seeds and summarise.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2

For every workload in ``BENCHMARK.json`` this runs ``run.py`` once per seed
with tracing off and once per traced seed with tracing on, one process at a
time. It writes ``perfbench/baseline.json``: per metric the median, the
quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), the machine block, and
the checks that each workload does the work it was chosen for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result, machine block)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    result = json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return result, machine


def summarise(results: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        entry = {"unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        out[spec["name"]] = entry
    return out


def work_checks(per_layer: dict[str, dict]) -> dict[str, dict]:
    """Does each workload spend its time where it was chosen to?"""
    def m(workload: str, name: str) -> float:
        return per_layer[workload][name]["median"]

    def fofe(workload: str) -> float:
        return m(workload, "fofe.context_code.self_s") + m(workload, "fofe.context_backward.self_s")

    train_layers = ("nn.forward", "nn.loss_softmax_xent", "nn.backward", "nn.apply_update", "lm.train_lm")
    checks = {}
    if "synthetic" in per_layer:
        others = max(m("synthetic", f"{name}.self_s") for name in train_layers)
        checks["synthetic: fofe self time is the largest share of train"] = {
            "fofe_s": fofe("synthetic"), "largest_other_s": others,
            "train_s": m("synthetic", "cli.train.total_s"), "holds": fofe("synthetic") > others}
    if "wide-vocab" in per_layer:
        dense = m("wide-vocab", "nn.apply_update.self_s") + m("wide-vocab", "nn.backward.self_s")
        checks["wide-vocab: nn.apply_update + nn.backward outweigh fofe"] = {
            "dense_s": dense, "fofe_s": fofe("wide-vocab"), "holds": dense > fofe("wide-vocab")}
    if "wsd-lemmas" in per_layer:
        wsd = m("wsd-lemmas", "cli.build.total_s") + m("wsd-lemmas", "cli.predict.total_s")
        checks["wsd-lemmas: build + predict outweigh train"] = {
            "build_predict_s": wsd, "train_s": m("wsd-lemmas", "cli.train.total_s"),
            "holds": wsd > m("wsd-lemmas", "cli.train.total_s")}
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--traced-seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    record: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    per_layer = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        traced = [run(workload, seed, spec["run_seconds"], 1) for seed in args.traced_seeds]
        record["machine"] = untraced[0][1]
        per_layer[workload] = summarise([r for r, _ in traced], spec["per_layer"])
        record["workloads"][workload] = {
            "seeds": args.seeds,
            "traced_seeds": args.traced_seeds,
            "all_correct": all(r["correct"] for r, _ in untraced + traced),
            "end_to_end": summarise([r for r, _ in untraced], spec["end_to_end"]),
            "per_layer": per_layer[workload],
        }
    record["machine"]["seeds"] = {w: args.seeds for w in record["workloads"]}
    record["work_checks"] = work_checks(per_layer)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for workload, entry in record["workloads"].items():
        for name, e in entry["end_to_end"].items():
            flag = "" if e["spread"] <= e["bound"] / 3 or name == "setup_s" else "  WIDE"
            print(f"{workload:<11} {name:<24} median={e['median']:<12.6g} spread={e['spread']:.4f} "
                  f"bound={e['bound']}{flag}")
    for name, check in record["work_checks"].items():
        print(f"{'ok  ' if check['holds'] else 'FAIL'} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
