"""Every example script must run clean: they are the documentation's
executable half.  Each defines main() with its own assertions."""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), EXAMPLES_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


@pytest.mark.parametrize("name", EXAMPLE_FILES)
def test_example_runs_clean(name, capsys):
    output = run_example(name, capsys)
    assert "===" in output  # every example prints a banner


def test_performance_monitoring_reports_observability(capsys):
    """The monitoring example doubles as the observability demo: it must
    print recorder-derived infrastructure stats alongside flow counters."""
    output = run_example("performance_monitoring.py", capsys)
    assert "traced packets" in output
    assert "trace hash" in output


def test_all_examples_present():
    expected = {
        "quickstart.py", "performance_monitoring.py", "tcp_splicing_proxy.py",
        "syn_flood_defense.py", "wavelet_video.py", "mpls_switch.py",
        "cluster_router.py", "routing_protocol.py", "latency_profile.py",
        "multi_router_network.py",
    }
    assert expected <= set(EXAMPLE_FILES)
