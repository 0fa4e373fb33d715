"""edm-atlas benchmark: stage wall time, extraction throughput and peak memory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload catalog_short --seed 0 --seconds 15 --trace 0

Workloads (parameters in ``workloads.py``):

* ``catalog_short``  80 fixture tracks (20 per family) of 12 s at 22050 Hz
  through extract (2 workers), cluster, sweep, profile and plot;
* ``extract_long``   4 fixture tracks of 360 s at 44100 Hz through extract
  (1 worker), so resampling runs and the STFT dominates;
* ``analysis_wide``  a generated 120-track, 10-genre feature matrix in the
  real extraction schema through cluster, sweep, profile and plot.

Each invocation sets the workload up in fresh child processes
(``SETUP_REPEATS`` times untraced, reporting the median), then measures it
in one more child process that runs the stage sequence through
``edm_atlas.cli.main`` until ``--seconds`` have passed (at least twice).
BLAS is pinned to one thread in every child.

Every file a stage writes is hashed with SHA-256. At the reference seed the
digests must equal ``reference.json``; at any seed every repeat must equal
the first. An operation is one track extraction, one stage invocation or one
set-up; a failed extraction, a nonzero exit code or a differing digest fails
it.

``--trace 0`` reports setup_s, run_s and peak_rss_mb. ``--trace 1`` runs one
plain iteration and two traced ones (all with one extraction worker, so
every span stays in one process) and reports, per traced function, busy
time ``<module>.<function>_s`` and call count ``<module>.<function>_calls``,
per module ``<module>.self_s``, and ``trace.overhead_s``. Call counts must
repeat exactly between the two traced iterations.

Human-readable lines come first: digest problems, per-iteration and
per-stage times, the first iteration's output digests per stage, the summary
metrics extract_rt_x, cluster_s, sweep_s and failed_frac where the workload
runs that stage, and the environment. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_names  # noqa: E402

WORKLOADS = ("catalog_short", "extract_long", "analysis_wide")
SETUP_REPEATS = 3
# One invocation must end within 180 s; keep a margin for the last report.
RUN_BUDGET_S = 165.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# Units of the human-readable summary lines; extract_rt_x is audio seconds
# analysed per wall second, failed_frac is failed / attempted operations.
DERIVED_UNITS = {
    "run_s": "s",
    "extract_rt_x": "x",
    "cluster_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "setup_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def _run_child(args: list[str], deadline: float) -> None:
    """Run ``worker.py`` in its own process group; kill the group on timeout."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.setdefault("EDM_ATLAS_LOG", "error")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"worker {args[0]} exceeded the time budget") from None
    if code != 0:
        raise ChildFailed(f"worker {args[0]} exited with code {code}")


def _compare(label: str, got: dict, want: dict) -> list[str]:
    """One message per file whose digest differs, is missing or is extra."""
    problems = []
    for name in sorted(set(got) | set(want)):
        if name not in got:
            problems.append(f"{label}: {name} missing")
        elif name not in want:
            problems.append(f"{label}: {name} unexpected")
        elif got[name] != want[name]:
            problems.append(f"{label}: {name} digest {got[name][:12]} != {want[name][:12]}")
    return problems


def _reference(ref: dict, args, environment: dict) -> tuple[dict | None, str]:
    """The workload's reference digests, when they apply to this run."""
    under = ref["captured_under"]
    if args.size != under["size"] or args.seed != under["seed"]:
        return None, f"no reference digests for seed {args.seed} (size {args.size}); repeats checked"
    for key in ("numpy", "scipy", "blas"):
        if environment[key] != under[key]:
            return None, (
                f"reference digests captured under {key} {under[key]}, running {environment[key]};"
                " repeats checked"
            )
    return ref["digests"][args.workload], "reference digests checked"


def _expected_counts(ref: dict, tracks: int, stages: set[str]) -> dict[str, int]:
    """Call counts the seed commit makes on this workload."""
    out = {}
    for name, rule in ref["seed_counts"].items():
        if rule["per"] == "track":
            out[name] = rule["value"] * tracks if "extract" in stages else 0
        else:
            out[name] = rule["value"] if "cluster" in stages else 0
    return out


def measure(args, run_dir: Path, deadline: float) -> tuple[dict, int, int, list[str], dict]:
    """Set up, measure and check one workload.

    Returns (metrics, attempted, failed, notes, environment).
    """
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    attempted = failed = 0
    notes: list[str] = []
    setups = []
    for r in range(1 if args.trace else SETUP_REPEATS):
        report = run_dir / f"setup_{r}.json"
        _run_child(
            ["setup", "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
             "--dir", str(run_dir / f"in_{r}"), "--report", str(report)],
            deadline,
        )
        setups.append(json.loads(report.read_text(encoding="utf-8")))
        attempted += 1
        if r > 0:
            problems = _compare(f"set-up repeat {r}", setups[r]["digests"], setups[0]["digests"])
            notes += problems
            failed += bool(problems)
            shutil.rmtree(run_dir / f"in_{r}")

    report = run_dir / "measure.json"
    remaining = deadline - time.monotonic()
    spans = Path.cwd() / ".perfbench_work" / f"spans-{args.workload}-{args.size}-s{args.seed}.json"
    _run_child(
        ["measure", "--workload", args.workload, "--size", args.size,
         "--inputs", str(run_dir / "setup_0.json"), "--work", str(run_dir),
         "--seconds", str(args.seconds), "--budget", str(remaining - 5.0),
         "--trace", str(args.trace), "--spans", str(spans), "--report", str(report)],
        deadline,
    )
    result = json.loads(report.read_text(encoding="utf-8"))
    iterations = result["iterations"]
    tracks = setups[0]["inputs"]["tracks"]
    reference, ref_note = _reference(ref, args, result["environment"])
    notes.append(ref_note)

    first = {s["stage"]: s["outputs"] for s in iterations[0]["stages"]}
    notes.append("digests " + json.dumps(first, sort_keys=True))
    for i, iteration in enumerate(iterations):
        for stage in iteration["stages"]:
            name = stage["stage"]
            problems = _compare(f"iteration {i} {name}", stage["outputs"], first[name])
            if reference is not None:
                problems += _compare(f"iteration {i} {name} vs reference", stage["outputs"], reference.get(name, {}))
            if stage["exit"] != 0:
                problems.append(f"iteration {i} {name}: exit code {stage['exit']}")
            if name == "extract":
                attempted += tracks
                lost = tracks if stage["exit"] not in (0, 1) else tracks - stage["rows"]
                failed += lost
                if lost:
                    problems.append(f"iteration {i} extract: {lost} of {tracks} tracks failed")
            attempted += 1
            failed += bool(problems)
            notes += problems

    def stage_median(name: str) -> float | None:
        times = [
            s["seconds"] for it in iterations if it["mode"] == "plain" for s in it["stages"] if s["stage"] == name
        ]
        return statistics.median(times) if times else None

    def run_median(mode: str) -> float:
        return statistics.median(
            sum(s["seconds"] for s in it["stages"]) for it in iterations if it["mode"] == mode
        )

    stage_names = [s["stage"] for s in iterations[0]["stages"]]
    for i, it in enumerate(iterations):
        notes.append(f"iteration {i} ({it['mode']}): {sum(s['seconds'] for s in it['stages']):.4f} s")
    for name in stage_names:
        notes.append(f"stage {name}: median {stage_median(name):.4f} s")
    if args.trace:
        traced = [it["layers"] for it in iterations if it["mode"] == "traced"]
        attempted += 1
        unequal = [k for k in traced[0] if k.endswith("_calls") and len({t[k] for t in traced}) > 1]
        if unequal:
            failed += 1
            notes.append(f"call counts differ between traced iterations: {', '.join(unequal)}")
        for name, want in _expected_counts(ref, tracks, set(stage_names)).items():
            got = traced[0][name]
            same = "same as" if got == want else "differs from"
            notes.append(f"count {name} = {got} ({same} seed value {want})")
        notes.append(f"traced with 1 extraction worker; spans in {spans.relative_to(Path.cwd())}")

    extract_s = stage_median("extract")
    derived = {
        "run_s": run_median("plain"),
        "extract_rt_x": setups[0]["inputs"]["audio_s"] / extract_s if extract_s else None,
        "cluster_s": stage_median("cluster"),
        "sweep_s": stage_median("sweep"),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }
    if args.trace:
        values = {
            name: traced[0][name] if name.endswith("_calls") else statistics.median(t[name] for t in traced)
            for name in traced[0]
        }
        values["trace.overhead_s"] = run_median("traced") - derived["run_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layer_metric_names()}
    else:
        derived["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: {"value": derived[name], "unit": unit} for name, unit in END_TO_END}

    for name, value in derived.items():
        if value is not None:
            notes.append(f"metric {name} = {value} {DERIVED_UNITS[name]}")
    return metrics, attempted, failed, notes, result["environment"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edm-atlas benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-test")
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "edm_atlas" / "__init__.py").is_file():
        print("error: run from the root of an edm-atlas checkout (src/edm_atlas not found)", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    load_start = _loadavg()
    run_dir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.size}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        metrics, attempted, failed, notes, environment = measure(args, run_dir, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    environment.update({
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "wall_s": time.monotonic() - started,
    })
    for note in notes:
        print(note)
    print("environment " + json.dumps(environment))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
