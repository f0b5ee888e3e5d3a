"""Self-tests of the harness: run_all at the start of every benchmark run,
check_binding_sites in every traced run.

They count toward the run's checks, so a broken harness shows as a failed
run.  Run standalone with `PYTHONPATH=src python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import sys

import spans
import workloads as wl
from wildknot import cli, cover, presets

# Names bound with `from ... import` that wrapping only the defining module
# would miss.
IMPORTED_SITES = (
    (cli, "build_cover", "cover.build_cover"),
    (cli, "validate_cover", "cover.validate_cover"),
    (cover, "knot_surface", "complexes.knot_surface"),
    (presets, "validate_complex", "complexes.validate_complex"),
)


def _toy(sid, parent, name, t0, t1):
    return spans.Span(sid, parent, name, "toy", t0, t1, 0.0, t1 - t0, 0, 0)


def check_self_time_arithmetic(checks):
    """a[0,10] > (b[1,4] > c[2,3]), d[5,9] > a[6,8]: a recursive call inside d."""
    tree = [
        _toy(0, -1, "a", 0.0, 10.0),
        _toy(1, 0, "b", 1.0, 4.0),
        _toy(2, 1, "c", 2.0, 3.0),
        _toy(3, 0, "d", 5.0, 9.0),
        _toy(4, 3, "a", 6.0, 8.0),
    ]
    checks.add("selftest.self_times", spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 2.0])
    checks.add("selftest.top_level", spans.top_level_seconds(tree) == 10.0)
    table = spans.layer_table(tree)
    checks.add("selftest.recursion_counted_once",
               table["a"]["calls"] == 2 and table["a"]["self_s"] == 5.0
               and table["a"]["total_s"] == 10.0 and table["a"]["cpu_s"] == 10.0)


def check_oracles(checks):
    checks.add("selftest.scaled_preset_at_27",
               wl.scaled_spun_trefoil(27) == presets.spun_trefoil_preset())
    checks.add("selftest.growth_series",
               wl.amalgam_growth(8) == [1, 4, 12, 32, 84, 220, 576, 1508, 3948])


def check_binding_sites(tracer, checks):
    """Every imported binding is patched while installed and restored after."""
    found = all((mod, attr) in tracer.sites[name] for mod, attr, name in IMPORTED_SITES)
    checks.add("selftest.imported_sites_found", found)
    tracer.install("selftest")
    try:
        wrapped = all(hasattr(getattr(mod, attr), spans.MARKER)
                      for mod, attr, _name in IMPORTED_SITES)
    finally:
        tracer.uninstall()
    checks.add("selftest.imported_sites_wrapped", wrapped)
    checks.add("selftest.patches_undone",
               tracer.originals_restored() and spans.wrapped_bindings() == [])


def run_all(checks):
    check_self_time_arithmetic(checks)
    check_oracles(checks)


if __name__ == "__main__":
    result = wl.Checks()
    run_all(result)
    check_binding_sites(spans.Tracer(), result)
    print(f"{result.attempted - len(result.failures)}/{result.attempted} passed",
          *result.failures)
    sys.exit(1 if result.failures else 0)
