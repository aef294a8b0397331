"""End-to-end benchmark of the finsimp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  One client drives the CLI as a
closed loop: a single process starts one fresh ``python3 -m finsimp.cli``
child at a time and waits for it, so every invocation pays interpreter
start-up and every cache fill, as a user does.  A *pass* is all of a
workload's CLI invocations; passes repeat until ``--seconds`` have passed,
and at least one always completes.

Every invocation is checked against the references pinned in
``references.json``: exit code, sha256 of stdout and sha256 of stderr.  A
faster wrong answer therefore counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(wall time per pass, peak RSS of the children, import time).  With
``--trace 1`` each pass runs once untraced and once under ``tracer.py``,
which records a span for every call of a public function of the traced
modules; the last line reports per-function calls and times.  The line
before it, and ``perfbench/.work/result-*.json``, hold the run metadata
and the full per-function table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
SRC = ROOT / "src"

# A run that outlives this many seconds stops and reports failure.
DEADLINE_S = 170.0
SETUP_IMPORTS = 21

# Each workload stresses one layer and bypasses another; see README.md.
FIXED_ARGS = {
    "present-a4": [["present", "--alpha", "4"]],
    "tmatch-a3d5": [["t-match", "--alpha", "3", "--degree-bound", "5"]],
    "horns-r5s5": [["horns", "--r", "5", "--s", "5"]],
}
WORKLOADS = ("present-a4", "tmatch-a3d5", "attach-wide", "horns-r5s5")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> (function, field); fields come from tracer.summarize
PER_LAYER = {
    "finmap.compose.calls": ("finmap.compose", "calls"),
    "finmap.compose.self_s": ("finmap.compose", "self_s"),
    "strings.canonicalize.calls": ("strings.canonicalize", "calls"),
    "strings.canonicalize.self_s": ("strings.canonicalize", "self_s"),
    "strings.core.calls": ("strings.core", "calls"),
    "strings.face.calls": ("strings.face", "calls"),
    "strings.enumerate_nondegenerate.s": ("strings.enumerate_nondegenerate", "s"),
    "grids.image_subset.calls": ("grids.image_subset", "calls"),
    "grids.image_subset.s": ("grids.image_subset", "s"),
    "grids.boundary_image.calls": ("grids.boundary_image", "calls"),
    "grids.boundary_image.s": ("grids.boundary_image", "s"),
    "grids.restrict.calls": ("grids.restrict", "calls"),
    "grids.is_saturated.calls": ("grids.is_saturated", "calls"),
    "grids.is_saturated.s": ("grids.is_saturated", "s"),
    "grids.enumerate_corner_grids.s": ("grids.enumerate_corner_grids", "s"),
    "grids.defect_subcomplex.s": ("grids.defect_subcomplex", "s"),
    "shuffles.attach_diagram.calls": ("shuffles.attach_diagram", "calls"),
    "shuffles.attach_diagram.self_s": ("shuffles.attach_diagram", "self_s"),
    "shuffles.attachment_hypothesis.s": ("shuffles.attachment_hypothesis", "s"),
    "shuffles.horn_certificate.calls": ("shuffles.horn_certificate", "calls"),
    "shuffles.horn_certificate.self_s": ("shuffles.horn_certificate", "self_s"),
    "presentation.enumerate_generators.s": ("presentation.enumerate_generators", "s"),
    "presentation.present.s": ("presentation.present", "s"),
    "presentation.excess_strings.s": ("presentation.excess_strings", "s"),
    "presentation.match_excess.s": ("presentation.match_excess", "s"),
    "presentation.order_excess.s": ("presentation.order_excess", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
RATIOS = ("strings.enumerate_nondegenerate.yield_ratio", "grids.image_subset.distinct_ratio", "trace_overhead")
LAYER_UNITS = {
    **{name: "count" if name.endswith(".calls") else "s" for name in PER_LAYER},
    "cli.process.cpu_s": "s",
    **{name: "ratio" for name in RATIOS},
}


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def run_child(argv: list[str], timeout: float) -> dict:
    """Run one child to completion; return wall time, rusage and captured output."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "stdout.bin", WORK / "stderr.bin"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(result: dict, ref: dict) -> list[str]:
    """Differences between one invocation's result and its pinned reference."""
    problems = []
    if result["exit"] != ref["exit"]:
        problems.append(f"exit {result['exit']} != {ref['exit']}")
    for stream in ("stdout", "stderr"):
        got = sha256(result[stream])
        if got != ref[f"{stream}_sha256"]:
            problems.append(f"{stream} sha256 {got[:12]} != {ref[f'{stream}_sha256'][:12]}")
    if "members" in ref and not problems:
        skel = json.loads(result["stdout"])
        if len(skel["complex"]) != ref["members"] or skel["skeletal_dimension"] != ref["top_degree"]:
            problems.append("member count or top degree differs")
    return problems


def make_cases(workload: str, seed: int) -> list[list[str]]:
    """The CLI arguments of one pass.  Input files are written here, before any timing."""
    if workload != "attach-wide":
        return FIXED_ARGS[workload]
    sys.path.insert(0, str(SRC))
    import attach_inputs

    return [
        ["attach", "--subset", str(subset.relative_to(ROOT)), "--grid", str(grid.relative_to(ROOT))]
        for subset, grid in attach_inputs.generate(seed, WORK / "attach")
    ]


class Run:
    """One benchmark run: invocations, their checks and the run deadline."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def invoke(self, argv: list[str], ref: dict | None) -> dict:
        self.attempted += 1
        result = run_child(argv, self.remaining())
        problems = check(result, ref) if ref is not None else ([] if result["exit"] == 0 else ["exit"])
        if problems:
            self.failures.append({"argv": argv, "problems": problems})
        return result

    def cli_pass(self, cases: list[dict], spans_dir: Path | None = None) -> dict:
        """Run every case once; traced under ``tracer.py`` when ``spans_dir`` is set."""
        total = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "spans": []}
        for k, case in enumerate(cases):
            if spans_dir is None:
                argv = [sys.executable, "-m", "finsimp.cli", *case["args"]]
            else:
                spans = spans_dir / f"spans_{k}.bin"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *case["args"]]
                total["spans"].append(spans)
            result = self.invoke(argv, case["ref"])
            total["wall_s"] += result["wall_s"]
            total["cpu_s"] += result["cpu_s"]
            total["rss_mb"] = max(total["rss_mb"], result["rss_mb"])
        return total


def setup_time(run: Run) -> float:
    """Median wall time of a fresh interpreter running ``import finsimp.cli``."""
    argv = [sys.executable, "-c", "import finsimp.cli"]
    return statistics.median(run.invoke(argv, None)["wall_s"] for _ in range(SETUP_IMPORTS))


def layer_metrics(summaries: list[dict], untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from per-pass span summaries; medians over passes."""
    absent = sorted({fn for fn, _ in PER_LAYER.values() if fn not in summaries[0]["functions"]})

    def value(summary, fn, field):
        return summary["functions"].get(fn, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, (fn, field) in PER_LAYER.items():
        metrics[name] = statistics.median(value(s, fn, field) for s in summaries)
    metrics["strings.enumerate_nondegenerate.yield_ratio"] = statistics.median(
        ratio(s["enumerate_classes"], s["enumerate_canonicalize_calls"]) for s in summaries
    )
    metrics["grids.image_subset.distinct_ratio"] = statistics.median(
        ratio(s["image_subset_distinct"], value(s, "grids.image_subset", "calls")) for s in summaries
    )
    metrics["cli.process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    metrics["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in untraced
    )
    return metrics, absent


def git_head() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finsimp" / "cli.py").is_file():
        print(f"error: no finsimp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    refs = json.loads((BENCH_DIR / "references.json").read_text())[args.workload]
    cli_cases = make_cases(args.workload, args.seed)
    if [ref["args"] for ref in refs] != cli_cases:
        print("error: references.json does not list this workload's invocations", file=sys.stderr)
        return 2
    cases = [{"args": cli_args, "ref": ref} for cli_args, ref in zip(cli_cases, refs)]
    sys.path.insert(0, str(BENCH_DIR))
    run = Run()
    untraced, traced, summaries = [], [], []
    try:
        run.invoke([sys.executable, "-c", "import finsimp.cli"], None)  # compiles bytecode, as an install does
        if args.trace:
            import tracer

            spans_dir = WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            while not summaries or time.perf_counter() - start < args.seconds:
                untraced.append(run.cli_pass(cases))
                traced.append(run.cli_pass(cases, spans_dir))
                summaries.append(tracer.merge([tracer.summarize(p) for p in traced[-1]["spans"]]))
        else:
            setup = setup_time(run)
            start = time.perf_counter()
            while not untraced or time.perf_counter() - start < args.seconds:
                untraced.append(run.cli_pass(cases))
    except Timeout:
        print(f"error: the run did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if args.trace:
        metrics, absent = layer_metrics(summaries, untraced, traced)
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": max(p["rss_mb"] for p in untraced),
            "setup_s": setup,
        }
        units, absent = END_TO_END, []

    failed = len(run.failures)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
        "passes": len(untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "failed_ratio": failed / run.attempted,
        "failures": run.failures,
        "absent": absent,
    }
    if summaries:
        details["functions"] = summaries[0]["functions"]
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, "metrics": metrics}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({k: v for k, v in details.items() if k != "functions"}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
