"""What the benchmark in perfbench/ needs of the package.

The benchmark wraps functions under the names their callers look up and
checks every solve's output, so a refactor that renames or re-homes one of
those functions, or changes the state a solve returns, fails here rather
than only when the benchmark runs.  perfbench/ is imported, never changed.
"""

import importlib.util
from contextlib import ExitStack
from pathlib import Path

from aris_emf.harness import MC_EPS, MC_KNOBS
from aris_emf.orchestrator import baseline_fixed_ris, run_ao
from aris_emf.scenario import desk_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instrument = _load("instrument")
checks = _load("checks")


def test_tracer_finds_every_wrapped_name():
    with ExitStack() as stack:
        instrument.Tracer().install(stack)


def test_output_checks_pass_on_a_desk_run():
    sc = desk_scenario()
    state, report = run_ao(sc, trial=0, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    checks.check_state(state, report)


def test_output_checks_pass_on_the_fixed_surface_report():
    sc = desk_scenario()
    report = baseline_fixed_ris(sc, trial=0, eps=MC_EPS, max_outer=1,
                                knobs=MC_KNOBS)
    checks.check_report(report, sc)
