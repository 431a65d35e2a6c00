"""The benchmark trajectory recorder: BENCH_<name>.json round trips.

Covers the library (record) and the ``benchmarks/conftest``
session hook that turns pytest-benchmark ``extra_info`` rows into
trajectory files -- exercised here on synthesized benchmark objects so
the test does not need to run a real bench.
"""

import importlib.util
import json
import os

import pytest

from repro.obs.bench_record import (
    ROOT_ENV,
    SCHEMA,
    bench_path,
    record_benchmark,
)


def _load(bench_name, root):
    """One written trajectory file, checked to carry the current schema."""
    with open(bench_path(bench_name, str(root))) as fh:
        doc = json.load(fh)
    assert doc["schema"] == SCHEMA
    return doc


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------


def test_record_and_load_round_trip(tmp_path):
    rows = {
        "throughput (Mpps)": {"paper": 3.47, "measured": 3.52},
        "drops": {"paper": None, "measured": 0},
    }
    tests = {
        "test_throughput": {"wall_time_s": 1.25, "rows": rows},
    }
    path = record_benchmark("bench_demo", rows, tests=tests,
                            root=str(tmp_path))
    assert path == str(tmp_path / "BENCH_bench_demo.json")
    doc = _load("bench_demo", tmp_path)
    assert doc["bench"] == "bench_demo"
    assert doc["rows"] == rows
    assert doc["wall_time_s"] == pytest.approx(1.25)
    assert doc["tests"]["test_throughput"]["rows"] == rows


def test_record_sanitizes_non_finite_floats(tmp_path):
    rows = {"spare": {"paper": None, "measured": float("inf")}}
    record_benchmark("bench_nan", rows, root=str(tmp_path))
    text = (tmp_path / "BENCH_bench_nan.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text)["rows"]["spare"]["measured"] is None


def test_root_env_var_overrides_destination(tmp_path, monkeypatch):
    monkeypatch.setenv(ROOT_ENV, str(tmp_path))
    assert bench_path("bench_x") == str(tmp_path / "BENCH_bench_x.json")
    record_benchmark("bench_x", {"m": {"paper": 1, "measured": 2}})
    assert (tmp_path / "BENCH_bench_x.json").exists()


# ---------------------------------------------------------------------------
# The benchmarks/conftest.py session hook
# ---------------------------------------------------------------------------


def _load_bench_conftest():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "benchmarks", "conftest.py")
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _FakeStats:
    def __init__(self, total):
        self.total = total


class _FakeBench:
    def __init__(self, fullname, extra_info, total):
        self.fullname = fullname
        self.extra_info = extra_info
        self.stats = _FakeStats(total)


class _FakeSession:
    def __init__(self, benchmarks):
        class Config:
            pass

        self.config = Config()
        if benchmarks is not None:
            class BenchSession:
                pass

            bs = BenchSession()
            bs.benchmarks = benchmarks
            self.config._benchmarksession = bs


def test_sessionfinish_hook_writes_trajectory_files(tmp_path, monkeypatch):
    monkeypatch.setenv(ROOT_ENV, str(tmp_path))
    conftest = _load_bench_conftest()
    benches = [
        _FakeBench(
            "benchmarks/bench_alpha.py::test_one",
            {"mpps": {"paper": 3.47, "measured": 3.5}},
            total=2.0,
        ),
        _FakeBench(
            "benchmarks/bench_alpha.py::test_two",
            {"drops": {"paper": 0, "measured": 1}},
            total=1.5,
        ),
        _FakeBench(
            "benchmarks/bench_beta.py::test_three[64]",
            {"kpps": {"paper": 534, "measured": 520.0}},
            total=0.5,
        ),
        # No extra_info: contributes nothing.
        _FakeBench("benchmarks/bench_empty.py::test_skip", {}, total=0.1),
    ]
    conftest.pytest_sessionfinish(_FakeSession(benches), exitstatus=0)

    alpha = _load("bench_alpha", tmp_path)
    assert set(alpha["rows"]) == {"mpps", "drops"}
    assert alpha["rows"]["mpps"] == {"paper": 3.47, "measured": 3.5}
    assert alpha["wall_time_s"] == pytest.approx(3.5)
    assert set(alpha["tests"]) == {"test_one", "test_two"}

    beta = _load("bench_beta", tmp_path)
    assert set(beta["tests"]) == {"test_three[64]"}
    assert not (tmp_path / "BENCH_bench_empty.json").exists()


def test_sessionfinish_hook_is_inert_without_benchmarks(tmp_path, monkeypatch):
    monkeypatch.setenv(ROOT_ENV, str(tmp_path))
    conftest = _load_bench_conftest()
    conftest.pytest_sessionfinish(_FakeSession(None), exitstatus=0)
    conftest.pytest_sessionfinish(_FakeSession([]), exitstatus=0)
    assert list(tmp_path.iterdir()) == []


def test_hook_rows_match_reported_table(tmp_path, monkeypatch, capsys):
    """Acceptance criterion: the serialized rows are exactly what
    ``report()`` printed/attached for the bench."""
    monkeypatch.setenv(ROOT_ENV, str(tmp_path))
    conftest = _load_bench_conftest()

    class _Bench:
        def __init__(self):
            self.extra_info = {}
            self.fullname = "benchmarks/bench_gamma.py::test_t1"
            self.stats = _FakeStats(0.25)

    bench = _Bench()
    conftest.report(bench, "demo", [("rate (Mpps)", 3.47, 3.5)])
    printed = capsys.readouterr().out
    assert "rate (Mpps)" in printed and "3.5" in printed
    conftest.pytest_sessionfinish(_FakeSession([bench]), exitstatus=0)
    doc = _load("bench_gamma", tmp_path)
    assert doc["rows"] == {"rate (Mpps)": {"paper": 3.47, "measured": 3.5}}
