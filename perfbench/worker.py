"""Child process of the benchmark: one set-up or one measuring session.

``worker.py setup``   imports the package, writes the workload's inputs and
                      reports how long both took, plus the inputs' digests.
``worker.py measure`` runs the workload's stage sequence repeatedly through
                      ``edm_atlas.cli.main`` and reports per-stage wall
                      times, exit codes, the SHA-256 of every file each stage
                      wrote, peak RSS and (traced) per-layer figures.

``run.py`` starts these with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread; each writes its report as JSON to the path given by ``--report``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

MIN_ITERATIONS = 2
TRACED_MODES = ("plain", "traced", "traced")


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def setup(args) -> dict:
    start = perf_counter()
    import edm_atlas  # noqa: F401  (package import is part of set-up)
    import workloads

    spec = workloads.WORKLOADS[args.size][args.workload]
    inputs = workloads.make_inputs(spec, args.seed, Path(args.dir))
    seconds = perf_counter() - start
    return {"setup_s": seconds, "inputs": inputs, "digests": digest_tree(Path(args.dir))}


def _run_iteration(cli, workloads, spec, inputs, out: Path, workers) -> list[dict]:
    out.mkdir(parents=True)
    if inputs["features"]:
        shutil.copyfile(inputs["features"], out / "features.csv")
    stages = []
    for stage, argv in workloads.stage_argvs(spec, inputs["manifest"], out, workers):
        before = digest_tree(out)
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
        after = digest_tree(out)
        record = {
            "stage": stage,
            "exit": code,
            "seconds": seconds,
            "outputs": {k: v for k, v in after.items() if before.get(k) != v},
        }
        if stage == "extract":
            features = out / "features.csv"
            lines = features.read_text(encoding="utf-8").splitlines() if features.exists() else []
            record["rows"] = max(0, len([ln for ln in lines if ln]) - 2)
        stages.append(record)
    shutil.rmtree(out)
    return stages


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def measure(args) -> dict:
    from edm_atlas import cli
    import workloads

    spec = workloads.WORKLOADS[args.size][args.workload]
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))["inputs"]
    work = Path(args.work)
    # The traced session keeps extraction in this process so that every
    # span is recorded; its plain iteration uses the same worker count.
    workers = 1 if args.trace else None

    tracer = None
    iterations = []
    begin = perf_counter()
    while True:
        i = len(iterations)
        if args.trace:
            if i == len(TRACED_MODES):
                break
            mode = TRACED_MODES[i]
        else:
            elapsed = perf_counter() - begin
            if i >= MIN_ITERATIONS and (
                elapsed >= args.seconds or elapsed * (i + 1) / i > args.budget
            ):
                break
            mode = "plain"
        if mode == "traced" and tracer is None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.reset()
        stages = _run_iteration(cli, workloads, spec, inputs, work / f"out_{i}", workers)
        iteration = {"mode": mode, "stages": stages}
        if mode == "traced":
            iteration["layers"] = tracer.summary()
        iterations.append(iteration)

    if tracer is not None and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "iterations": iterations,
        "peak_rss_mb": peak_kb / 1024.0,
        "environment": _environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", help="where set-up writes the inputs")
    parser.add_argument("--inputs", help="set-up report naming the inputs to measure on")
    parser.add_argument("--work", help="scratch directory for run outputs")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, default=float("inf"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="where to write the traced spans")
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    report = setup(args) if args.command == "setup" else measure(args)
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
