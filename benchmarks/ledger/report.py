"""Printing, run-to-run spread and the two-sided comparison.

``compare`` follows choosing-metrics §6.5 and §8: one row per
(metric, workload); a change *regressed* when its median is worse than
the parent's by more than the bound, *improved* when (from at least ten
pairs) it wins at least nine tenths of the paired runs and the medians
differ by more than the parent's own interquartile distance, and is *unresolved* — never
"unchanged" — when the spread is wider than the bound and the two sides'
runs interleave.
"""

from __future__ import annotations

import json
import statistics

from ledger import spec, stats


def fmt_value(value: float) -> str:
    if isinstance(value, float) and value and abs(value) < 0.01:
        return f"{value:.3g}"
    if isinstance(value, float) and abs(value) < 1000:
        return f"{value:.4g}"
    return f"{value:,.0f}"


def sample_count(result: dict, name: str) -> str:
    """The ``n=`` printed beside a timing."""
    found = result["n"].get(name)
    if found is None and name.startswith("query.") and "_p50_ms." in name:
        cls, fmt = name.split(".", 2)[2].split("_p50_ms.")  # query.<layer>.<cls>_p50_ms.<fmt>
        found = result["samples"].get(f"{cls}.{fmt}", {}).get("n")
    return "" if found is None else f"n={found}"


def _grouped(names: list[str], additive: bool) -> list[str]:
    """Collapse a top-level layer to ``layer.* (n)`` when ``names`` holds
    every one of its metrics of that kind (additive: counts, bytes,
    seconds; or statistics)."""
    top = lambda name: name.split(".", 1)[0]  # noqa: E731
    total: dict[str, int] = {}
    for metric in spec.PER_LAYER:
        if (metric.unit in spec.ADDITIVE_UNITS) == additive:
            total[top(metric.name)] = total.get(top(metric.name), 0) + 1
    by_layer: dict[str, list[str]] = {}
    for name in names:
        by_layer.setdefault(top(name), []).append(name)
    out = []
    for layer, found in by_layer.items():
        if len(found) == total[layer] and len(found) > 1:
            out.append(f"{layer}.* ({len(found)})")
        else:
            out.extend(found)
    return out


def print_workload(result: dict, out=print) -> None:
    """Every metric of one workload by name, with unit and sample count."""
    name = result["workload"]
    out(f"== {name}  seed={result['seed']}  rounds={result['rounds']}  "
        f"ops attempted={result['attempted']} failed={result['failed']}")
    for error in result["errors"]:
        out(f"   FAILED: {error}")
    out("-- end to end")
    layer = result.get("per_layer", {})
    values = dict(result["end_to_end"])
    if name == "serve_mixed":
        values.update({m.name: layer[m.name] for m in spec.SERVE_END_TO_END if m.name in layer})
    for metric_name, value in values.items():
        out(f"   {metric_name:<36} {fmt_value(value):>12} {spec.BY_NAME[metric_name].unit:<10} "
            f"{sample_count(result, metric_name)}")
    if not layer:
        return
    out("-- per layer (times: self time of one schedule pass; counts: fixed part + round 1)")
    zero, unmeasured = [], []
    for metric in spec.PER_LAYER:
        if metric.name in values:
            continue
        if metric.name not in layer and metric.unit not in spec.ADDITIVE_UNITS:
            unmeasured.append(metric.name)
        elif not layer.get(metric.name):
            zero.append(metric.name)
        else:
            out(f"   {metric.name:<52} {fmt_value(layer[metric.name]):>12} {metric.unit:<8} "
                f"{sample_count(result, metric.name)}")
    out(f"   0 on this workload (layer bypassed, or nothing to count): {', '.join(_grouped(zero, True))}")
    out("   not measured on this workload (class not run, too few samples for the "
        f"percentile, or a ratio over nothing): {', '.join(_grouped(unmeasured, False))}")
    out("-- self-time share of op wall, per format")
    for fmt, layers in sorted(result["self_s_by_format"].items()):
        wall = result["op_wall_s_by_format"].get(fmt)
        if not wall:
            continue
        shares = ", ".join(
            f"{layer_name} {own / wall:.1%}"
            for layer_name, own in sorted(layers.items(), key=lambda kv: -kv[1])
        )
        out(f"   {name}.{fmt}: op wall {wall:.3f} s/pass -> {shares}")


# ----------------------------------------------------------------------
# Spread over repeated runs
# ----------------------------------------------------------------------


def gated_values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(metric, workload) -> one value per run, for every gated metric."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            merged = {**result.get("per_layer", {}), **result["end_to_end"]}
            for metric, where in spec.GATED.items():
                if workload in where and metric in merged:
                    out.setdefault((metric, workload), []).append(merged[metric])
    return out


def print_spread(runs: list[dict], out=print) -> None:
    """Median, quartiles and relative spread per (metric, workload) of
    repeated runs of one seed, against the same-seed bounds."""
    out(f"{'metric':<36} {'workload':<13} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>8} {'bound':>6}")
    for (metric, workload), values in sorted(gated_values(runs).items()):
        q1, q2, q3 = stats.quartiles(values)
        bound = spec.BY_NAME[metric].same_seed_bound
        flag = "" if stats.spread(values) <= bound / 3 else "  > bound/3"
        out(f"{metric:<36} {workload:<13} {fmt_value(q2):>12} {fmt_value(q1):>12} "
            f"{fmt_value(q3):>12} {stats.spread(values):>8.2%} {bound:>6.3f}{flag}")


# ----------------------------------------------------------------------
# compare OLD NEW
# ----------------------------------------------------------------------


#: choosing-metrics §8: a gain is claimed from at least ten pairs.
MIN_PAIRS_FOR_A_GAIN = 10


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["runs"] if "runs" in data else [data]


def verdict(metric: spec.Metric, old: list[float], new: list[float],
            bound: float | None = None) -> tuple[str, float]:
    """``(verdict, worsening)`` where worsening is the change of the
    median as a share of the parent's, positive = worse."""
    bound = metric.bound if bound is None else bound
    sign = 1.0 if metric.better == "lower" else -1.0
    old_median, new_median = statistics.median(old), statistics.median(new)
    worse = sign * (new_median - old_median) / old_median if old_median else 0.0
    noise = max(stats.spread(old), stats.spread(new)) if len(old) > 1 and len(new) > 1 else 0.0
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    all_worse = all(sign * (n - o) > 0 for n in new for o in old)
    if worse > bound:
        if noise > bound and not all_worse:
            return "unresolved", worse
        return "regressed", worse
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    ties = sum(1 for o, n in pairs if n == o)
    q1, _, q3 = stats.quartiles(old) if len(old) > 1 else (old[0],) * 3
    if (
        len(pairs) >= MIN_PAIRS_FOR_A_GAIN
        and wins >= 0.9 * (len(pairs) - ties)
        and wins > 0
        and abs(new_median - old_median) > (q3 - q1)
    ):
        return "improved", worse
    if noise > bound and not all_better:
        return "unresolved", worse
    return "unchanged", worse


def compare(old_path: str, new_path: str, out=print) -> int:
    """One row per (metric, workload); returns the number regressed."""
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    seeds = {run["environment"]["seed"] for run in old_runs + new_runs}
    same_seed = len(seeds) == 1
    out(f"bounds: {'same seed on both sides, the tight bounds apply' if same_seed else 'seeds differ, the cross-seed bounds apply'}")
    old, new = gated_values(old_runs), gated_values(new_runs)
    regressed = 0
    out(f"{'metric':<36} {'workload':<14}{'old median':>12} {'new median':>12} "
        f"{'worse by':>9} {'bound':>6}  verdict")
    for key in sorted(set(old) | set(new)):
        metric_name, workload = key
        if key not in old or key not in new:
            out(f"{metric_name:<36} {workload:<13} only in {'OLD' if key in old else 'NEW'}")
            continue
        metric = spec.BY_NAME[metric_name]
        bound = metric.same_seed_bound if same_seed else metric.bound
        result, worse = verdict(metric, old[key], new[key], bound)
        regressed += result == "regressed"
        listed = "*" if workload in spec.ISSUE_PAIRS[metric_name] else " "
        out(f"{metric_name:<36} {workload:<13}{listed}"
            f"{fmt_value(statistics.median(old[key])):>12} "
            f"{fmt_value(statistics.median(new[key])):>12} "
            f"{worse:>+9.2%} {bound:>6.3f}  {result}")
    out("* = a pair the issue's table lists; the others are reported because the driver "
        "wants every end-to-end metric from every workload")
    return regressed
