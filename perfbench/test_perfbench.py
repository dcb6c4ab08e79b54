"""Tests of the benchmark's own code: oracle, word sampler and tracer."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from oracle import Command, chains_from, problem  # noqa: E402

VERIFY_OUT = (
    b"verify h=2 routes=bruteforce,formula\n"
    b"n=0 bruteforce=0 formula=0 ok\n"
    b"n=1 bruteforce=0 formula=0 ok\n"
    b"n=2 bruteforce=1 formula=1 ok\n"
    b"all rows agree\n"
)


def is_dyck(word: str, n: int) -> bool:
    height = 0
    for step in word:
        height += 1 if step == "u" else -1
        if step not in "ud" or height < 0:
            return False
    return len(word) == 2 * n and height == 0


def test_oracle_accepts_reference_output():
    verify = Command(("verify", "--h", "2", "--n-max", "2"), sha256=hashlib.sha256(VERIFY_OUT).hexdigest())
    assert problem(verify, 0, VERIFY_OUT) is None
    assert problem(Command(("chains", "--path", "uudd", "--h", "1"), expect=0), 0, b"0\n") is None


def test_oracle_rejects_corrupted_output():
    verify = Command(("verify", "--h", "2", "--n-max", "2"), sha256=hashlib.sha256(VERIFY_OUT).hexdigest())
    assert "digest" in problem(verify, 0, VERIFY_OUT.replace(b"=1 ok", b"=2 ok"))
    mismatch = VERIFY_OUT.replace(b"formula=1 ok", b"formula=2 MISMATCH")
    assert "ok" in problem(Command(verify.argv), 0, mismatch)
    assert "rows" in problem(Command(verify.argv), 0, b"\n".join(VERIFY_OUT.splitlines()[:3]))
    assert "expected 1" in problem(Command(("chains", "--path", "udud", "--h", "1"), expect=1), 0, b"2\n")


def test_oracle_rejects_nonzero_exit():
    verify = Command(("verify", "--h", "2", "--n-max", "2"), sha256=hashlib.sha256(VERIFY_OUT).hexdigest())
    assert problem(verify, 1, VERIFY_OUT) == "exit code 1"
    assert problem(Command(("chains", "--path", "udud", "--h", "1"), expect=1), 3, b"1\n") == "exit code 3"


def test_chain_oracle_matches_hand_counts():
    assert chains_from("udud", 1) == 1
    assert chains_from("ududud", 2) == 2  # two valleys flipped in either order
    assert chains_from("uuuddd", 3) == 0  # the top element has no upper cover
    assert chains_from("ud" * 4, 6) == 16  # longest chains of the n = 4 lattice


def draw(seed: int, n: int, count: int = 8) -> list[str]:
    rng = random.Random(seed)
    return [run.sample_dyck_word(rng, n) for _ in range(count)]


def test_sampler_is_deterministic_per_seed():
    assert draw(7, 60) == draw(7, 60)
    assert draw(7, 60) != draw(8, 60)
    assert run.workload_commands("series-dump", 3) == run.workload_commands("series-dump", 3)


def test_sampler_returns_valid_words_of_the_requested_semilength():
    for seed in range(20):
        for n in (0, 1, 2, 5, 60):
            assert all(is_dyck(word, n) for word in draw(seed, n, 3))


def test_query_words_have_the_requested_peak_count():
    rng = random.Random(5)
    words = [run.sample_query_word(rng, 60, 30) for _ in range(8)]
    assert all(is_dyck(word, 60) and word.count("ud") == 30 for word in words)


def test_sampler_is_uniform_on_a_small_lattice():
    counts = Counter(draw(0, 3, 5000))
    assert len(counts) == 5  # Catalan(3)
    assert all(800 < c < 1200 for c in counts.values())


@pytest.mark.parametrize(
    "argv, layer_metric",
    [
        ("verify --h 2 --n-max 7", "lattice.propagate"),
        ("lattice --n 4 --fmt dot", "lattice.export"),
        ("chains --path uudduudd --h 2", "formula.paths_scanned"),
        ("series --name F2 --order 6", "series.poly_mul"),
        ("index --h 2 --n-max 9", "indices.busy"),
    ],
)
def test_traced_and_untraced_runs_print_the_same(tmp_path, argv, layer_metric):
    command = Command(tuple(argv.split()))
    report = tmp_path / "report.json"
    with run.Spawner(tmp_path) as spawner:
        plain = spawner.run(run.command_argv(command))
        traced = spawner.run(run.command_argv(command, report))
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout and plain.stdout == traced.stdout
    assert json.loads(report.read_text())["calls"][layer_metric] > 0


def test_peak_rss_is_the_commands_own(tmp_path):
    ballast = b"x" * (128 << 20)  # the benchmark's own memory must not count
    with run.Spawner(tmp_path) as spawner:
        small = spawner.run([sys.executable, "-c", "pass"])
        large = spawner.run([sys.executable, "-c", "b = b'x' * (64 << 20)"])
    assert len(ballast) and small.returncode == large.returncode == 0
    assert small.maxrss_kb < 64 << 10
    assert large.maxrss_kb - small.maxrss_kb > 60 << 10


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)
