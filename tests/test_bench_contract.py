"""What the benchmark in perfbench/ needs of the package.

The benchmark wraps functions under the names their callers look up and
checks every solve's output, so a refactor that renames or re-homes one of
those functions, or changes the state a solve returns, fails here rather
than only when the benchmark runs.  perfbench/ is imported, never changed.
"""

import importlib.util
import inspect
from contextlib import ExitStack
from pathlib import Path

from aris_emf.harness import MC_EPS, MC_KNOBS
from aris_emf.orchestrator import baseline_fixed_ris, run_ao
from aris_emf.ris_phase import optimize_phases
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


def test_phase_tracer_reads_theta0_as_fifth_positional():
    # instrument._theta0 reads args[4]; a reorder would miscount `.changed`
    assert list(inspect.signature(optimize_phases).parameters)[4] == "theta0"


def test_beam_observer_reads_every_beam_solve_of_a_desk_run():
    # instrument._observe_beams reads .iterations and .converged of each
    # returned state; an exception there would escape run_ao
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        run_ao(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    assert tracer.totals()["beamforming.optimize_beamformer"][0] > 0
    assert tracer.counts["beamforming.optimize_beamformer.dinkelbach_iters"] > 0


def test_power_observer_reads_every_power_solve_of_a_desk_run():
    # instrument._observe_power counts the calls that raised; a desk run
    # raises none, so `.raised` must read 0 while `.calls` is positive
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        run_ao(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    assert tracer.totals()["power_control.allocate_power"][0] > 0
    assert tracer.counts["power_control.allocate_power.raised"] == 0


def test_phase_block_runs_without_the_sdp_on_a_fixed_surface_run():
    # the phase block is an ascent: its SDP and randomization counters read 0
    # while the phase block itself is called, and no fallback is counted
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        baseline_fixed_ris(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1,
                           knobs=MC_KNOBS)
    totals = tracer.totals()
    assert totals["ris_phase.optimize_phases"][0] > 0
    assert totals["convex_kernels.solve_sdp"][0] == 0
    assert totals["ris_phase.gaussian_randomization"][0] == 0
    assert tracer.counts["ris_phase.fallbacks"] == 0


def test_run_ao_observer_counts_the_fixed_surface_scheme():
    # `fixed` runs its hover leg through run_ao, so the benchmark's run_ao
    # observer reads its outer iterations and accepted blocks
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        baseline_fixed_ris(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1,
                           knobs=MC_KNOBS)
    assert tracer.counts["orchestrator.accepted.phases"] > 0
    assert tracer.counts["orchestrator.outer_iters"] > 0


def test_link_primitives_the_benchmark_times_are_called_in_a_desk_run():
    # the per-layer metrics of these names read 0 without an error if the
    # AO stops calling them under the name the benchmark wraps
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        run_ao(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1, knobs=MC_KNOBS)
    totals = tracer.totals()
    for name in ("channel.ChannelRealization.effective", "channel.channel_gain",
                 "beamforming.optimize_beamformer", "re_alloc.allocate",
                 "orchestrator.initialize_state"):
        assert totals[name][0] > 0, name
    # the hover search runs only in the fixed-surface scheme
    tracer = instrument.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        baseline_fixed_ris(desk_scenario(), trial=0, eps=MC_EPS, max_outer=1,
                           knobs=MC_KNOBS)
    assert tracer.totals()["orchestrator.fixed_position_search"][0] > 0
