"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/series.py --seeds 1-10 [--workloads a,b] [--trace 0]
                                [--seconds 10] [--out FILE.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, from
the repository root.  For every metric it reports the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  With ``--out`` it also writes every run's detail
and result lines and the summary as one JSON file.
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


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"detail": detail, "result": result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:44s} median {s['median']:<14.6g} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace,
                                        "seconds": args.seconds, "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
