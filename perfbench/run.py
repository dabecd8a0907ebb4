"""One benchmark command for the SPB-tree stack.

    python3 perfbench/run.py --workload tree-color --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  ``BENCHMARK.json`` lists the
workloads and every metric's unit and bound; ``perfbench/README.md``
describes them.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` makes a separate traced run
and reports the per-layer metrics.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (machine calibration, sample counts, errors) is written to
``.perfbench_out/``.  The exit code is 1 when an answer check fails and 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree-color", "serve-words", "churn-color")


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _locate_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}/repro; run from a source checkout", 2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not {src}", 2)


def _metric_table(trace: bool) -> list[dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}", 2)
    spec = json.loads(path.read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive", 2)

    _locate_program()
    table = _metric_table(bool(args.trace))

    import common

    calibration = common.calibrate()
    work = ROOT / ".perfbench_work"
    out_dir = ROOT / ".perfbench_out"
    cache = ROOT / ".perfbench_cache"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    try:
        if args.workload == "serve-words":
            import serve as workload

            result = workload.serve_words(
                args.seed, args.seconds, bool(args.trace), str(work),
                str(out_dir / f"spans-{stem}"),
            )
        else:
            import inproc as workload

            if args.workload == "tree-color":
                result = workload.tree_color(
                    args.seed, args.seconds, bool(args.trace), str(cache)
                )
            else:
                result = workload.churn_color(
                    args.seed, args.seconds, bool(args.trace), str(work), str(cache)
                )
        tracer = result.pop("tracer", None)
        if tracer is not None:
            tracer.save(str(out_dir / f"spans-{stem}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The fixed tail percentile must leave ten samples beyond it per op.
    tail_p = workload.TAIL_PERCENTILE
    short = {
        op: summary["n"]
        for op, summary in result["detail"].get("raw_latency_ms", {}).items()
        if op in ("knn", "range", "insert") and common.tail_percentile(summary["n"]) < tail_p
    }
    if short:
        print(f"perfbench: fewer samples than p{tail_p:g} needs: {short}", file=sys.stderr)

    values = result["metrics"]
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        _fail(f"workload did not report {missing}", 3)
    broken = [m["name"] for m in table if not math.isfinite(values[m["name"]])]
    if broken:
        _fail(f"workload reported non-finite {broken}", 3)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in table
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "calibration": calibration,
        "correct": result["correct"],
        "errors": result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "tail_percentile": tail_p,
        "short_tails": short,
        "detail": result["detail"],
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )

    for err in result["errors"]:
        print(f"ANSWER CHECK FAILED: {err}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"calibration score={calibration['score']:.3f} "
        f"nproc={calibration['nproc']} python={calibration['python']} "
        f"numpy={calibration['numpy']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
