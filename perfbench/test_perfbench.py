"""Tests of the benchmark itself: inputs, references, checker and metric names.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _brute_u(p, q):
    return sum(math.gcd(a, b) == 1 for a in range(1, p + 1) for b in range(1, q + 1))


def _brute_four_v(doubled_t, doubled_k):
    ct, ck = (doubled_t + 1) // 2, (doubled_k + 1) // 2
    return sum((doubled_t + 2 - 2 * i) * (doubled_k + 2 - 2 * j)
               for i in range(1, ct + 1) for j in range(1, ck + 1) if math.gcd(i, j) == 1)


@pytest.fixture(scope="module")
def tables():
    return reference.Tables(60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first, _ = workloads.generate(workload, 7)
    again, _ = workloads.generate(workload, 7)
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)


@pytest.mark.parametrize("workload", ["count-large", "bfile"])
def test_other_seed_other_inputs(workload):
    assert workloads.generate(workload, 1)[0] != workloads.generate(workload, 2)[0]


def test_verify_grids_fit_both_oracles():
    grids = workloads.verify_grids()
    assert (3, 4) in grids and (9, 1) in grids and (2, 6) not in grids
    assert all((m + 1) * (n + 1) <= 20 and max(m, n) <= 15 for m, n in grids)


def test_blocked_sums_match_definition(tables):
    for p in range(0, 13):
        for q in range(0, 13):
            assert tables.u_blocks(p, q) == _brute_u(p, q)
    for t in range(-2, 25):
        for k in range(-2, 25):
            assert tables.four_v_blocks(t, k) == _brute_four_v(t, k), (t, k)


def test_closed_forms_match_blocked_sums(tables):
    for c in range(0, 61):
        assert tables.u_square(c) == tables.u_blocks(c, c)
    for doubled in range(-2, 121):
        assert tables.four_v_square(doubled) == tables.four_v_blocks(doubled, doubled)


def test_reference_p_at_one_million():
    # the package's frozen value of P(10^6, 2)
    req = (("count", "--k", "1000000"),)
    assert reference.expected([req])[req]["P"] == 607927101897802895986966


def _run_once(argv):
    cli = run._import_cli()
    _, codes, texts = run.execute(cli, (argv,))
    return codes, texts


def test_checker_accepts_real_outputs_and_rejects_corruption():
    req_k = (("count", "--k", "300"),)
    req_mn = (("count", "--m", "40", "--n", "17", "--breakdown"),)
    req_b = (("oeis", "--sequence", "A114043", "--count", "50"),)
    answers = reference.expected([req_k, req_mn, req_b])
    for req in (req_k, req_mn, req_b):
        codes, texts = _run_once(req[0])
        assert reference.check(req, codes, texts, answers[req]) is None

    codes, texts = _run_once(req_k[0])
    record = json.loads(texts[0])
    record["P"] = str(int(record["P"]) + 2)
    assert "P" in reference.check(req_k, codes, (json.dumps(record),), answers[req_k])

    codes, texts = _run_once(req_mn[0])
    record = json.loads(texts[0])
    record["unstable"] = str(int(record["unstable"]) - 1)
    assert "unstable" in reference.check(req_mn, codes, (json.dumps(record),), answers[req_mn])
    assert "exit" in reference.check(req_mn, (1,), texts, answers[req_mn])

    codes, texts = _run_once(req_b[0])
    lines = texts[0].splitlines()
    dropped = "\n".join(lines[:20] + lines[21:]) + "\n"
    assert "lines" in reference.check(req_b, codes, (dropped,), answers[req_b])
    swapped = texts[0].replace(lines[9], lines[9] + "0")
    assert "line" in reference.check(req_b, codes, (swapped,), answers[req_b])


def test_checker_rejects_wrong_census_total():
    req = workloads.generate("verify", 1)[0][0]
    answers = reference.expected([req])
    cli = run._import_cli()
    _, codes, texts = run.execute(cli, req)
    assert reference.check(req, codes, texts, answers[req]) is None
    header, *rows = texts[1].splitlines()
    last = rows[-1].split(",")
    last[-1] = str(int(last[-1]) + 1)
    corrupt = "\n".join([header, *rows[:-1], ",".join(last)]) + "\n"
    assert "census" in reference.check(req, codes, (texts[0], corrupt), answers[req])


def test_per_layer_self_times_add_up():
    # root 0..100 with children 10..40 (itself holding 20..30) and 50..60
    rows = [
        ["cli.main", 0, 100, -1, 0, None, None],
        ["counting.count_total", 10, 40, 0, 0, None, None],
        ["numtheory.v_fast", 20, 30, 1, 0, None, 7],
        ["numtheory.sieve", 50, 60, 0, 0, "ValueError", 5],
    ]
    metrics = spans.per_layer(rows, 1, [100e-9], [90e-9])
    layers = sum(metrics[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layers == pytest.approx(100e-6)
    assert metrics["numtheory.share"] == pytest.approx(0.2)
    assert metrics["numtheory.v_fast.terms"] == 7
    assert metrics["numtheory.errors"] == 1 and metrics["cli.errors"] == 0


def test_traced_request_spans_nest_and_bindings_are_restored():
    cli = run._import_cli()
    import gridthresh.counting as counting

    original = counting.v_fast
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        _, codes, _ = run.execute(cli, (("count", "--m", "30", "--n", "12", "--breakdown"),))
    finally:
        tracer.uninstall()
    assert codes == (0,) and counting.v_fast is original
    rows = tracer.spans
    assert rows[0][spans.NAME] == "cli.main" and rows[0][spans.PARENT] == -1
    kernel_parents = {rows[r[spans.PARENT]][spans.NAME] for r in rows
                      if r[spans.NAME] == "numtheory.v_fast"}
    assert kernel_parents <= {"counting.count_total", "counting.count_stable",
                              "counting.count_unstable"}
    child = [0] * len(rows)
    for r in rows[1:]:
        child[r[spans.PARENT]] += r[spans.END] - r[spans.START]
    self_total = sum(r[spans.END] - r[spans.START] - c for r, c in zip(rows, child))
    assert self_total == rows[0][spans.END] - rows[0][spans.START]


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bfile", "--seed", "3",
         "--seconds", "0.1", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bfile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
