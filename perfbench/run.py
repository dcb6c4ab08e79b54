"""The dycklat benchmark: CLI workloads timed end to end, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, their command lists and the reasons they were chosen are in
``workloads.json``.  Every command runs as ``python -m dycklat ...`` in a
fresh process (spawned through ``launch.py``) against ``src/`` of the
checkout: one closed-loop caller, one command at a time.  A pass runs the
whole command list once; passes repeat while the next one still fits in
``--seconds``, and metrics are medians over passes.  Outputs are checked
against references held by the benchmark (``oracle.py``), outside the timed
region.  The seed chooses only the ``chains`` query words and the order of
commands within a pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a pass run through ``layer_trace.py``, reports the
per-layer metrics and writes the spans of the last traced pass to
``perfbench/.work/spans-<workload>.json``.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from oracle import Command, chains_from, problem

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACER = BENCH_DIR / "layer_trace.py"
LAUNCHER = BENCH_DIR / "launch.py"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))["workloads"]

SETUP_REPEATS = 21
SETUP_CODE = "import dycklat.cli; dycklat.cli.build_parser()"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sample_dyck_word(rng: random.Random, n: int) -> str:
    """A uniformly random Dyck word of semilength n (cycle lemma).

    Of the 2n+1 rotations of a shuffled sequence of n ``u`` and n+1 ``d``
    steps, exactly one stays at height >= 0 until its final ``d``: the one
    starting just after the first minimum of the prefix heights.
    """
    steps = ["u"] * n + ["d"] * (n + 1)
    rng.shuffle(steps)
    height = lowest = cut = 0
    for i, step in enumerate(steps):
        height += 1 if step == "u" else -1
        if height < lowest:
            lowest, cut = height, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


def sample_query_word(rng: random.Random, n: int, peaks: int) -> str:
    """A uniformly random Dyck word of semilength n among those with the given peak count.

    Rejection from :func:`sample_dyck_word`, so each accepted word is equally likely.
    """
    while True:
        word = sample_dyck_word(rng, n)
        if word.count("ud") == peaks:
            return word


def workload_commands(name: str, seed: int) -> list[Command]:
    """The workload's commands in the seed's order, chain queries included."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    commands = [Command(tuple(c["argv"].split()), sha256=c["sha256"]) for c in spec["commands"]]
    queries = spec.get("chain_queries")
    if queries:
        h = str(queries["h"])
        for _ in range(queries["count"]):
            word = sample_query_word(rng, queries["semilength"], queries["peaks"])
            commands.append(
                Command(("chains", "--path", word, "--h", h), expect=chains_from(word, int(h)))
            )
    rng.shuffle(commands)
    return commands


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes


class Spawner:
    """Runs one program at a time through ``launch.py``, keeping its files in work_dir."""

    def __init__(self, work_dir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.result_path = work_dir / "launch.txt"
        self.stderr = open(work_dir / "stderr.txt", "w+b")

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.stderr.close()

    def run(self, argv: list[str]) -> Outcome:
        """Run argv to completion while draining its stdout."""
        self.stderr.seek(0)
        self.stderr.truncate()
        launcher = [sys.executable, "-I", "-S", str(LAUNCHER), str(self.result_path), *argv]
        proc = subprocess.Popen(
            launcher, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.stderr, env=self.env
        )
        with proc.stdout:
            out = proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"launcher failed: {self.stderr_tail()}")
        wall, cpu, maxrss, code = self.result_path.read_text(encoding="utf-8").split()
        return Outcome(float(wall), float(cpu), int(maxrss), int(code), out)

    def stderr_tail(self) -> str:
        self.stderr.seek(0)
        lines = self.stderr.read().decode("utf-8", "replace").strip().splitlines()
        return lines[-1] if lines else ""


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)


def command_argv(command: Command, report_path: Path | None = None) -> list[str]:
    """The child's argv: plain ``python -m dycklat``, or traced when a report path is given."""
    if report_path is None:
        return [sys.executable, "-m", "dycklat", *command.argv]
    return [sys.executable, str(TRACER), str(report_path), *command.argv]


def run_pass(commands: list[Command], spawner: Spawner, report_path: Path | None = None) -> Pass:
    """One pass over the commands; only spawn-to-exit is timed."""
    result = Pass()
    for command in commands:
        outcome = spawner.run(command_argv(command, report_path))
        result.wall_s += outcome.wall_s
        result.cpu_s += outcome.cpu_s
        result.maxrss_kb = max(result.maxrss_kb, outcome.maxrss_kb)
        result.stdout_bytes += len(outcome.stdout)
        reason = problem(command, outcome.returncode, outcome.stdout)
        if reason:
            result.failures.append(f"{command}: {reason} {spawner.stderr_tail()}".rstrip())
        if report_path is not None and report_path.exists():  # a crashed child writes none
            result.reports.append(json.loads(report_path.read_text(encoding="utf-8")))
            result.reports[-1]["command"] = str(command)
            report_path.unlink()
    return result


def measure_setup(spawner: Spawner) -> float:
    """Median spawn-to-exit time of a process that only imports the CLI and builds its parser."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run only warms the bytecode cache
        outcome = spawner.run(argv)
        if outcome.returncode != 0:
            raise RuntimeError(f"set-up process failed: {spawner.stderr_tail()}")
        if i:
            times.append(outcome.wall_s)
    return statistics.median(times)


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    calls, seconds, self_s = Counter(), Counter(), Counter()
    for report in p.reports:
        calls.update(report["calls"])
        seconds.update(report["seconds"])
        self_s.update(report["self_s"])
    hits = sum(r["cache_hits"] for r in p.reports)
    lookups = hits + sum(r["cache_misses"] for r in p.reports)
    return {
        "paths.words": calls["paths.words"],
        "lattice.propagate_s": seconds["lattice.propagate"],
        # Commands run in separate processes, so the pass's growth is the largest one.
        "lattice.rss_growth_mb": max((r["rss_growth_kb"].get("lattice", 0) for r in p.reports), default=0) / 1024,
        "lattice.build_s": seconds["lattice.build"],
        "lattice.export_s": seconds["lattice.export"],
        "lattice.scan_s": seconds["lattice.scan"],
        "shapes.tableau_calls": calls["shapes.tableau"],
        "shapes.tableau_s": seconds["shapes.tableau"],
        "shapes.enumerate_s": seconds["shapes.enumerate"],
        "formula.paths_scanned": calls["formula.paths_scanned"],
        "formula.self_s": self_s["formula"],
        "series.poly_mul_calls": calls["series.poly_mul"],
        "series.poly_mul_s": seconds["series.poly_mul"],
        "series.mul_calls": calls["series.mul"],
        "series.mul_s": seconds["series.mul"],
        "series.newton_calls": calls["series.newton"],
        "series.newton_s": seconds["series.newton"],
        "series.sqrt_s": seconds["series.sqrt"],
        "series.div_s": seconds["series.div"],
        "genseries.system3_s": seconds["genseries.system3"],
        "genseries.system2_s": seconds["genseries.system2"],
        "genseries.factor_s": seconds["genseries.factor"],
        "genseries.valley_s": seconds["genseries.valley"],
        "genseries.closed_s": seconds["genseries.closed"],
        "genseries.self_s": self_s["genseries"],
        "genseries.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "indices.busy_s": seconds["indices.busy"],
        "cli.self_s": sum(r["main_s"] - r["top_s"] for r in p.reports),
        "cli.stdout_bytes": p.stdout_bytes,
    }


def machine_info(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dycklat" / "cli.py").is_file():
        print(f"error: no dycklat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    commands = workload_commands(args.workload, args.seed)
    info = machine_info(args.workload, args.seed)
    info["commands"] = [str(c) for c in commands]

    with Spawner(WORK_DIR) as spawner:
        setup_s = None if args.trace else measure_setup(spawner)
        plain, traced = [], []
        start = perf_counter()
        longest = 0.0
        while True:
            began = perf_counter()
            plain.append(run_pass(commands, spawner))
            if args.trace:
                traced.append(run_pass(commands, spawner, WORK_DIR / "report.json"))
            longest = max(longest, perf_counter() - began)
            if perf_counter() - start + longest > args.seconds:
                break

    passes = plain + traced
    attempted = len(commands) * len(passes)
    failures = [f for p in passes for f in p.failures]
    info["passes"] = len(plain)
    print(json.dumps(info))
    for failure in failures:
        print(f"FAILED {failure}")

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
        spans = [{"command": r["command"], "spans": r["spans"]} for r in traced[-1].reports]
        (WORK_DIR / f"spans-{args.workload}.json").write_text(json.dumps(spans), encoding="utf-8")
        metrics["trace.overhead_ratio"] = statistics.median([p.wall_s for p in traced]) / statistics.median(
            [p.wall_s for p in plain]
        )
    else:
        metrics = {
            "wall_s": statistics.median([p.wall_s for p in plain]),
            "cpu_s": statistics.median([p.cpu_s for p in plain]),
            "peak_rss_mb": statistics.median([p.maxrss_kb for p in plain]) / 1024,
            "setup_s": setup_s,
        }
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{args.workload:14} {name:26} {value:14.6g} {units[name]}")
    print(
        f"{args.workload:14} {'error_rate':26} {len(failures) / attempted:14.6g} ratio"
        f" ({len(failures)} of {attempted} commands)"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
