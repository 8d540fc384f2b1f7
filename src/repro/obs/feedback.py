"""Cost-model feedback: the metric names the planner/executor record and
the recalibration math :meth:`CostModel.from_observed` consumes.

The contract is intentionally narrow: the instrumented pipeline records
four predicted-resource / actual-seconds counter pairs, and
:func:`cost_model_fields_from_snapshot` turns any registry snapshot
(local, merged-across-processes, or loaded from JSON) into constructor
overrides for :class:`~repro.batch.config.CostModel`.  A field is only
recalibrated when both sides of its pair carry signal (> 0), so a
snapshot from a sequential-only deployment recalibrates
``seconds_per_cost_unit`` and leaves the ship/delta constants at their
fixed defaults.

The constants live here (not at the call sites) because they are shared
by the writers in ``repro.batch`` and this reader — every other metric
name in the catalog (``src/repro/obs/README.md``) appears exactly once in
the code and stays a literal at its instrumentation point.
"""

from __future__ import annotations

from typing import Dict, Mapping

# Predicted/actual enumeration cost, recorded once per executed shard
# (parallel) or per executed plan (sequential planned path).
COST_PREDICTED_UNITS_TOTAL = "repro_cost_predicted_units_total"
COST_ACTUAL_SECONDS_TOTAL = "repro_cost_actual_seconds_total"

# Full index builds: BFS entries produced and wall seconds.
INDEX_BUILD_ENTRIES_TOTAL = "repro_index_build_entries_total"
INDEX_BUILD_SECONDS_TOTAL = "repro_index_build_seconds_total"

# Incremental delta repair: (changed edge x index row) work units and wall
# seconds of apply_delta.
INDEX_DELTA_EDGE_ROWS_TOTAL = "repro_index_delta_edge_rows_total"
INDEX_DELTA_SECONDS_TOTAL = "repro_index_delta_seconds_total"

# Index shipping: bytes of the per-shard index blobs submitted with the
# tasks and the worker-side seconds spent deserializing them (the graph
# ships once per pool through the initializer and is excluded).
SHIP_BYTES_TOTAL = "repro_executor_ship_bytes_total"
SHIP_SECONDS_TOTAL = "repro_executor_ship_seconds_total"

# Which index strategy the planner resolved, labelled
# {strategy="built"|"cached"|"delta"|"none"}.
PLAN_INDEX_STRATEGY_TOTAL = "repro_plan_index_strategy_total"

#: counter-pair -> CostModel field recalibrated as actual / predicted.
_FEEDBACK_RATES = (
    ("seconds_per_cost_unit", COST_ACTUAL_SECONDS_TOTAL, COST_PREDICTED_UNITS_TOTAL),
    ("seconds_per_index_entry", INDEX_BUILD_SECONDS_TOTAL, INDEX_BUILD_ENTRIES_TOTAL),
    ("seconds_per_delta_edge", INDEX_DELTA_SECONDS_TOTAL, INDEX_DELTA_EDGE_ROWS_TOTAL),
    ("seconds_per_shipped_byte", SHIP_SECONDS_TOTAL, SHIP_BYTES_TOTAL),
)


def cost_model_fields_from_snapshot(
    snapshot: Mapping[str, dict],
) -> Dict[str, float]:
    """CostModel field overrides derivable from a registry snapshot.

    Returns only the fields whose predicted/actual counter pair both carry
    signal; the caller keeps defaults (or explicit overrides) for the rest.
    """
    counters = snapshot.get("counters", {})
    fields: Dict[str, float] = {}
    for field, seconds_name, units_name in _FEEDBACK_RATES:
        seconds = float(counters.get(seconds_name, 0.0))
        units = float(counters.get(units_name, 0.0))
        if seconds > 0.0 and units > 0.0:
            fields[field] = seconds / units
    return fields
