"""Harness self-tests of the ledger.

Run explicitly (tier-1 ``testpaths`` does not include them)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from ledger import cli, report, spec, stats, trace
from ledger.harness import digest, explore_round
from repro.query.explore import ExplorationQuery, ExplorationResult
from repro.query.sql.executor import QueryResult
from repro.spatial.geometry import BoundingBox

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
AREA = BoundingBox(0.0, 0.0, 100_000.0, 60_000.0)


#: Four antenna sites and the CDR records each carried (100 in all).
SITES = [(0.0, 0.0, 10), (100_000.0, 60_000.0, 20), (40_000.0, 20_000.0, 30), (70_000.0, 5_000.0, 40)]


# -- statistics -------------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(199) == 90
    assert stats.tail_percentile(200) == 95
    summary = stats.summarize([float(i) for i in range(199)])
    assert summary["n"] == 199 and "p90" in summary and "p95" not in summary
    assert set(stats.summarize([1.0, 2.0, 3.0])) == {"n", "p50"}
    assert "p95" in stats.summarize([float(i) for i in range(200)])


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([5.0], 95) == 5.0


def test_geometric_mean():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    # The 450 ms join must not drown a 2x gain on a 70 ms scan.
    before, after = stats.geomean([70.0, 450.0]), stats.geomean([35.0, 450.0])
    assert after / before == pytest.approx(0.5 ** 0.5)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# -- schedules --------------------------------------------------------------


def test_schedule_is_deterministic_per_seed_and_differs_across_seeds():
    def a_round(seed, round_no):
        return explore_round(seed, round_no, 16, AREA, SITES, 0, 47)

    first = a_round(2017, 1)
    assert first == a_round(2017, 1)
    assert first != a_round(7, 1)
    assert first != a_round(2017, 2)
    # The class mix is fixed (50/25/25), only placement and order vary.
    for ops in (first, a_round(7, 3)):
        classes = sorted(op.cls for op in ops)
        assert classes.count("cdr_box") == 8
        assert classes.count("cdr_full") == classes.count("nms_full") == 4
        for op in ops:
            if op.box is None:
                continue
            # A box holds 10-40 % of the records (and at most one site's
            # worth more: sites are not divisible), so it is never empty.
            held = sum(
                n for x, y, n in SITES
                if op.box.min_x <= x <= op.box.max_x and op.box.min_y <= y <= op.box.max_y
            )
            assert 10 <= held <= 40 + 40


# -- spans ------------------------------------------------------------------


def _span(name, start, end, parent=None):
    return [name, "layer", start, end, parent, 0, "t"]


def test_self_time_with_nested_and_overlapping_children():
    root = _span("root", 0.0, 10.0)
    child_a = _span("a", 1.0, 4.0, root)
    child_b = _span("b", 3.0, 6.0, root)  # overlaps a: union is [1, 6]
    grandchild = _span("g", 1.5, 2.5, child_a)
    sticking_out = _span("late", 9.0, 12.0, root)  # clipped to [9, 10]
    own = trace.self_times([root, child_a, child_b, grandchild, sticking_out])
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_covered_merges_intervals():
    assert trace.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert trace.covered([], 0, 10) == 0.0


# -- the wrap table ---------------------------------------------------------


def test_wrap_table_resolves_against_src():
    names = [target.name for target in trace.WRAP_TABLE]
    assert len(names) == len(set(names))
    for target in trace.WRAP_TABLE:
        owner, leaf, value = trace.resolve(target)
        assert callable(value), target


def test_wrap_table_fails_loudly_on_a_renamed_entry_point():
    gone = trace.Target("dfs", "x", "repro.dfs.filesystem", "SimulatedDFS.no_such_call")
    with pytest.raises(LookupError, match="renamed"):
        trace.resolve(gone)


def _bindings():
    """Every attribute of a loaded ``repro`` module or class the tracer
    could touch: the table's owners plus all module-level aliases."""
    seen = {}
    for target in trace.WRAP_TABLE:
        owner, leaf, value = trace.resolve(target)
        seen[(id(owner), leaf)] = (owner, leaf, value)
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for alias, value in list(vars(module).items()):
                if callable(value):
                    seen.setdefault((id(module), alias), (module, alias, value))
    return seen


def _current(owner, leaf):
    return owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)


def test_every_wrapped_attribute_is_restored_also_after_an_exception():
    import repro.index.incremence  # holds ``from x import y`` aliases
    import repro.query.sql.executor  # noqa: F401

    before = _bindings()
    tracer = trace.Tracer()
    with tracer:
        changed = [
            key for key, (owner, leaf, value) in before.items()
            if _current(owner, leaf) is not value
        ]
        assert len(changed) >= len(trace.WRAP_TABLE)
        # An alias bound by ``from repro.core.layout import serialize_table``.
        assert repro.index.incremence.serialize_table is not before[
            (id(repro.index.incremence), "serialize_table")
        ][2]
    for owner, leaf, value in before.values():
        assert _current(owner, leaf) is value

    with pytest.raises(RuntimeError, match="boom"):
        with trace.Tracer():
            raise RuntimeError("boom")
    for owner, leaf, value in before.values():
        assert _current(owner, leaf) is value


def test_tracer_records_nested_spans_and_meters():
    from repro.compression.base import get_codec

    tracer = trace.Tracer()
    with tracer:
        with tracer.op(workload="t", fmt="row", cls="c", kind="sql") as op_id:
            packed = get_codec("gzip-ref").compress(b"abc" * 100)
            get_codec("gzip-ref").decompress(packed)
    names = [rec[trace.NAME] for rec in tracer.spans]
    assert names == ["c", "gzip-ref.compress", "gzip-ref.decompress"]
    assert all(rec[trace.OP] == op_id for rec in tracer.spans)
    assert tracer.spans[1][trace.PARENT] is tracer.spans[0]
    assert tracer.counts["compression.bytes_in"] == 300
    assert tracer.counts["compression.bytes_decompressed"] == 300


# -- the oracle -------------------------------------------------------------


def _explore(records):
    query = ExplorationQuery("CDR", ("downflux",), None, 0, 1)
    return ExplorationResult(query=query, columns=["epoch", "downflux"], records=records)


def test_digest_sees_order_values_and_types():
    a = QueryResult(["c"], [[1], [2]])
    assert digest(a) == digest(QueryResult(["c"], [[1], [2]]))
    assert digest(a) != digest(QueryResult(["c"], [[2], [1]]))
    assert digest(a) != digest(QueryResult(["c"], [["1"], [2]]))
    one, two = _explore([["0", "5"], ["0", "7"]]), _explore([["0", "7"], ["0", "5"]])
    assert digest(one) != digest(two)
    assert digest(one, ordered=False) == digest(two, ordered=False)


# -- compare ----------------------------------------------------------------


def test_compare_verdicts():
    metric = spec.BY_NAME["sql_geomean_ms.row"]  # lower is better
    bound = metric.bound
    steady = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert report.verdict(metric, steady, [v * (1 + 2 * bound) for v in steady])[0] == "regressed"
    assert report.verdict(metric, steady, [v * 0.7 for v in steady])[0] == "improved"
    # Five pairs cannot claim a gain (choosing-metrics: at least ten).
    assert report.verdict(metric, steady[:5], [v * 0.7 for v in steady[:5]])[0] == "unchanged"
    assert report.verdict(metric, steady, list(reversed(steady)))[0] == "unchanged"
    noisy_old = [100.0, 160.0, 80.0, 140.0, 90.0]
    noisy_new = [150.0, 85.0, 130.0, 95.0, 105.0]
    assert report.verdict(metric, noisy_old, noisy_new)[0] == "unresolved"
    higher = spec.BY_NAME["ingest_rows_per_s.row"]
    assert report.verdict(higher, steady, [v * 0.5 for v in steady])[0] == "regressed"


# -- the manifest and the whole suite ---------------------------------------


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == spec.manifest()
    manifest = spec.manifest()
    assert [w["name"] for w in manifest["workloads"]] == [
        "ingest_week", "query_cold", "query_warm", "shard_socket", "serve_mixed",
    ]
    assert len(manifest["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))


def test_smoke_suite_runs_all_five_workloads_in_under_thirty_seconds(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    status = cli.main(["--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert status == 0
    assert elapsed < 30.0, elapsed
    suite = json.loads(out.read_text())
    assert set(suite["workloads"]) == set(spec.WORKLOADS)
    for name, result in suite["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] > 0, name
        for metric in spec.END_TO_END:
            assert result["end_to_end"][metric.name] > 0, (name, metric.name)
        assert 0.0 < result["per_layer"]["trace.attributed_share"] <= 1.0 + 1e-9
    shard_only = [
        key for key, value in suite["workloads"]["query_warm"]["per_layer"].items()
        if key.startswith("shard.") and value
    ]
    assert not shard_only  # every shard.* is 0 outside shard_socket


def test_driver_line_has_exactly_the_contract_keys():
    result = {
        "correct": True, "attempted": 3, "failed": 0,
        "end_to_end": {m.name: 1.5 for m in spec.END_TO_END},
        "per_layer": {"dfs.read_s": 0.25},
    }
    line = json.loads(cli.driver_line(result, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in spec.END_TO_END}
    traced = json.loads(cli.driver_line(result, trace=True))
    assert set(traced["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert traced["metrics"]["dfs.read_s"] == {"value": 0.25, "unit": "s"}
    # A layer that did not run counted nothing and took no time ...
    assert traced["metrics"]["shard.retries"]["value"] == 0.0
    assert traced["metrics"]["shard.wire.codec_s"]["value"] == 0.0
    # ... but a latency nobody sampled is not a latency of 0 ms.
    assert traced["metrics"]["serve_p95_ms.hi"]["value"] == spec.NOT_MEASURED
    assert traced["metrics"]["core.leaf_cache.hit_rate.row"]["value"] == spec.NOT_MEASURED
