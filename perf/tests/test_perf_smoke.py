"""Smoke test of the benchmark itself.  Run from the repo root:

    python -m pytest perf/tests -q

Two ``--smoke`` runs with one seed (about three minutes together): the
report carries exactly the names BENCHMARK.json declares, every value is
finite, the span budget closes on ``small_call``, and the count metrics
repeat exactly.  The imaging quality model is checked against a
hand-written schedule without running anything.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perf"))

from workloads import AdaptiveImaging, QualityModel  # noqa: E402

#: per-layer metrics that are counts: exact for a given seed
COUNT_METRICS = [
    "http11.requests_per_call", "http11.connections_accepted",
    "serving.admitted", "serving.shed", "serving.queue_peak",
    "transport.pool_reused", "transport.retries", "pbio.compact_share",
    "pbio.request_bytes", "pbio.response_bytes", "core.cache_hit_ratio",
    "core.quality_switches", "core.handler_fallbacks",
    "core.level_share.ImageFull", "core.level_share.ImageHalf",
]


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = []
    for _ in range(2):
        directory = tmp_path_factory.mktemp("perf_out")
        subprocess.run([sys.executable, str(ROOT / "perf" / "run.py"),
                        "--smoke", "--seed", "7", "--out", str(directory)],
                       check=True, timeout=600, stdout=subprocess.DEVNULL)
        with open(directory / "report.json") as fh:
            out.append((directory, json.load(fh)))
    return out


def test_report_and_contract_name_the_same_things(contract, reports):
    directory, report = reports[0]
    assert list(report["workloads"]) == [
        w["name"] for w in contract["workloads"]]
    for name, workload in report["workloads"].items():
        assert workload["failed"] == 0 and not workload["problems"]
        assert (directory / f"trace_{name}.json").exists()
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[section]}
            assert set(workload[section]) == set(declared)
            for metric, entry in workload[section].items():
                assert math.isfinite(entry["value"]), (name, metric)
                assert entry["unit"] == declared[metric]
        for metric, entry in workload["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)


def test_environment_is_recorded(reports):
    environment = reports[0][1]["environment"]
    for key in ("nproc", "cpu_model", "pinned_to_cpu", "python", "numpy",
                "git_commit", "load_average_before", "load_average_after",
                "cleared_variables", "loop", "clients"):
        assert key in environment
    assert reports[0][1]["settings"]["seed"] == 7


def test_small_call_self_times_sum_to_the_root_span(reports):
    workload = reports[0][1]["workloads"]["small_call"]
    layers = workload["per_layer"]
    parts = sum(layers[name]["value"] for name in (
        "core.client_self_us", "http11.wire_self_us",
        "core.endpoint_self_us", "apps.handler_us"))
    root = workload["diagnostics"]["traced_root_p50_us"]
    assert abs(parts - root) <= 0.05 * root
    assert layers["budget.coverage"]["value"] > 0


def test_same_seed_repeats_counts_exactly(reports):
    (_, first), (_, second) = reports
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        assert (a["end_to_end"]["body_bytes_per_call"]["value"]
                == b["end_to_end"]["body_bytes_per_call"]["value"]), name
        for metric in COUNT_METRICS:
            assert (a["per_layer"][metric]["value"]
                    == b["per_layer"][metric]["value"]), (name, metric)


def test_imaging_counts_follow_the_schedule(reports):
    layers = reports[0][1]["workloads"]["adaptive_imaging"]["per_layer"]
    assert layers["core.level_share.ImageFull"]["value"] == pytest.approx(4 / 12)
    assert layers["core.level_share.ImageHalf"]["value"] == pytest.approx(8 / 12)
    assert layers["core.quality_switches"]["value"] == 2
    assert layers["core.cache_hit_ratio"]["value"] == 1


def test_quality_model_on_a_hand_written_schedule():
    model = QualityModel()
    reports = [0.05] * 4 + [0.40] * 8 + [0.05] * 4 + [0.40, 0.05, 0.40, 0.40]
    expected = (["ImageFull"] * 6 + ["ImageHalf"] * 6     # two calls late
                + ["ImageHalf"] * 2 + ["ImageFull"] * 2   # and back
                + ["ImageFull"] * 4)                      # blips: no switch
    assert [model.observe(rtt) for rtt in reports] == expected
    # the first report alone decides the starting level
    assert QualityModel().observe(0.40) == "ImageHalf"
    # exactly at the threshold the degraded interval applies
    assert QualityModel().observe(0.20) == "ImageHalf"


def test_imaging_schedule_and_pool():
    workload = AdaptiveImaging(seed=3)
    rtts = [workload.reported_rtt(n) for n in range(24)]
    assert rtts == ([0.05] * 4 + [0.40] * 8) * 2
    for start in range(0, len(workload.pool), 4):
        assert sorted(workload.pool[start:start + 4]) == workload.FILES
    assert workload.pool == AdaptiveImaging(seed=3).pool
    assert workload.pool != AdaptiveImaging(seed=4).pool
