"""Prometheus text for the stats groups the program's owners report.

A stats group is one owner's counters as a flat ``{field: value}``
mapping: a service's ``ServiceStats.as_dict()``, its detector cache's
``CacheStats.as_dict()``, a scheduler's ``SchedulerStats.as_dict()``, a
blob store's ``stats()``. Each reader builds its groups from the objects
it already holds (the detection service for the ``stats`` verb, the
experiment executor for ``telemetry.json``), so two owners in one
process never mix their numbers. This module only renders such groups
in the Prometheus text exposition format (0.0.4).
"""

from __future__ import annotations

from typing import List, Mapping


def render_prometheus(groups: Mapping[str, Mapping[str, object]]) -> str:
    """The groups as gauges named ``freqywm_<group>_<field>``.

    Groups and fields come out in sorted order. Fields that are not
    numbers (a ``None`` capacity, a flag, a mode string) are skipped:
    exposition values must be numbers. Integral floats print without a
    trailing ``.0``.
    """
    lines: List[str] = []
    for group, fields in sorted(groups.items()):
        for field, value in sorted(fields.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float):
                text = str(int(value)) if value.is_integer() else repr(value)
            else:
                text = str(value)
            name = f"freqywm_{group}_{field}"
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {text}")
    return "\n".join(lines) + "\n"


__all__ = ["render_prometheus"]
