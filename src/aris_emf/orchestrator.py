"""Alternating-optimization driver and the benchmark schemes.

The element-to-user allocation is fixed at initialization by the greedy
ranking of `re_alloc.allocate`, which depends only on the rate targets and
the start path's distances; the power block may later drop an element whose
water-filled power is zero.  One outer iteration runs the transmit beams,
then the surface phases, then the transmit powers, each block once over all
slots, and then refines the flight path across slots.  Each block proposes a
candidate per slot, and `_accept` is the one judge: a slot takes its
candidate exactly when its own exposure sum does not rise and every user in
it stays within the power cap.  The index sums the slot sums first, so the
exposure trace is non-increasing by construction, in floating point too.
This block-major order makes the decisions of a slot-by-slot sweep: a block's inputs and
outputs at slot ell are slot ell's rows, every cap is per slot, and the index
is a plain sum over slots.  Only near-ties differ, where a candidate moves
its slot sum by about an ulp and the slot-by-slot total rounds the other way.

Beams and the cache refresh run as one array pass over all slots, in runs of
whole slots of at most `channel.GROUP_LINKS` links (a larger slot runs
alone); powers are one water-filling call over every (slot, user) row; the
phases run one ascent per slot.  `run_ao` is the one way into the loop:
the `random` and `zero` benchmarks pin the phases by its phase_mode, `fixed`
starts it on the hover path with the path block off, and `no-ris` runs it on
the scenario without a surface.  The benchmark schemes accept the trial's
ChannelSet, so a sweep builds it once for all of them.

Throughout, each assigned resource element carries a fixed rate share, and
its transmit power is pinned to rate equality (p = power_factor / gain);
the power block is the one place where shares themselves are re-balanced.
Rate targets therefore hold exactly after every accepted block.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .beamforming import optimize_beamformer
from .channel import (STREAM_GR, STREAM_RANDOM_PHASE, ChannelSet, beam_array,
                      beam_vector, channel_gain, expanded_gain, gram, gram_terms,
                      rng_stream, slot_groups)
from .exposure import (ExposureReport, InfeasibleError, exposure_index,
                       power_factor, reference_sar)
from .power_control import allocate_power
from .re_alloc import allocate
from .ris_phase import PhaseShiftVector, optimize_phases, uniform_phases
from .trajectory import GainField, Trajectory, optimize_trajectory, straight_trajectory

NEUTRAL_BEAM = (1.0, 0.0)  # (alpha2, beta2) of every beam the search has not set
CAP_SLACK = 1e-9         # relative slack on per-user power caps
SLOT_ARRAYS = ("delta", "shares", "powers", "gamma", "sar", "beams", "thetas")
HOVER_RESOLUTION = 1.0   # meters; the hover-point search stops below this radius

# Path-block budgets during one AO run.  They favor speed on repeated
# Monte Carlo runs; the per-module defaults (used when calling the path
# optimizer directly) are stricter.  One linearized waypoint move per
# outer iteration (TRAJ_X_ROUNDS = TRAJ_SCA_ITERS = 1) is the efficient
# schedule here because the outer loop re-derives the gain field (beams,
# phases and powers included) before every new attempt, which a standalone
# multi-round search cannot do.  TRAJ_BARRIER_TOL bounds how far the path
# subproblem's answer may sit above its optimum in the scaled surrogate (the
# barrier's m/t); answers within it are equally valid, so a change in the
# barrier's schedule moves waypoints (by up to 0.2 m on a desk round) while
# the surrogate value moves by less than the tolerance.  The phase block's
# step budget, tolerance and restarts are `ris_phase` constants.
TRAJ_X_ROUNDS = 1
TRAJ_SCA_ITERS = 1
TRAJ_BARRIER_TOL = 1e-4


@dataclass
class AoKnobs:
    """The one AO budget callers set.

    The allocation is fixed at initialization by the greedy ranking; each
    outer iteration runs beams, phases and power, each over all slots, then
    the flight-path block.  traj_outers caps how many outer iterations
    attempt a flight-path move; later iterations polish beams, phases and
    powers on the final path.
    """

    traj_outers: int = 2


@dataclass
class SolutionState:
    """Everything the alternating loop owns, plus cached per-link numbers.

    delta/shares/powers/gamma/sar have shape (N_T, U, N_c); beams is a float
    record array of that shape with fields alpha and beta, each (..., 2);
    thetas is (N_T, N) unit-modulus.  trace collects per-block exposure
    deltas; counters tallies inner-solver work.
    """

    scenario: object
    channel_set: ChannelSet
    channels: object
    trajectory: np.ndarray
    delta: np.ndarray
    shares: np.ndarray
    powers: np.ndarray
    gamma: np.ndarray
    sar: np.ndarray
    beams: np.ndarray
    thetas: np.ndarray
    trace: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: dict.fromkeys(
        ("phase_calls", "phase_steps", "phase_retired", "sca_iters", "beam_links",
         "beam_unusable", "power_fallbacks", "path_fallbacks"), 0))

    def per_user_exposure(self):
        """(U, N_T) per-slot exposure sums."""
        return np.einsum("lun,lun,lun->ul", self.delta, self.powers, self.sar)

    def exposure(self):
        return exposure_index(self.per_user_exposure(),
                              self.scenario.params.slot_duration)

    def slot_rates(self, ell):
        """(U,) achieved rates in slot ell from the cached gains ((N_T, U)
        for every slot when ell is `...`)."""
        p = self.scenario.params
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = np.where(self.delta[ell] > 0,
                           self.powers[ell] * self.gamma[ell] / p.noise_per_re, 0.0)
        return p.bandwidth_per_re * np.log2(1.0 + snr).sum(axis=-1)

    def achieved_rates(self):
        """(U,) worst per-slot rate of each user."""
        return self.slot_rates(...).min(axis=0)

    def report(self, label):
        return ExposureReport(self.per_user_exposure(), self.exposure(),
                              self.achieved_rates(), label)

    def audit(self):
        """Verify every problem constraint; raises naming the violated one."""
        sc = self.scenario
        p = sc.params
        if np.any(self.delta.sum(axis=1) > 1.0 + 1e-12):
            raise InfeasibleError("allocation exclusivity violated: "
                                  "a resource element has two owners")
        active = self.delta > 0
        if np.any(self.powers[active] <= 0):
            raise InfeasibleError("positivity violated: an assigned resource "
                                  "element carries no power")
        if np.any(~np.isfinite(self.gamma[active])) or np.any(self.gamma[active] <= 0):
            raise InfeasibleError("an assigned resource element has a "
                                  "degenerate channel gain")
        if self.thetas.size and np.any(np.abs(np.abs(self.thetas) - 1.0) > 1e-9):
            raise InfeasibleError("unit-modulus constraint violated on the "
                                  "surface phases")
        short = self.slot_rates(...) < sc.rate_targets * (1.0 - 1e-6)
        over = self.powers.sum(axis=-1) > p.p_max * (1.0 + CAP_SLACK)
        for ell, rows in enumerate(zip(short, over)):
            for what, bad in zip(("rate target", "power cap"), rows):
                if bad.any():
                    raise InfeasibleError(f"{what} violated in slot {ell} for users "
                                          f"{np.flatnonzero(bad).tolist()}")
        Trajectory(self.trajectory).check(p.max_slot_distance,
                                          sc.aris_start, sc.aris_end)
        return True


def _sar_of(beams, model):
    """Reference SAR of every beam in a record array."""
    return reference_sar(model, np.moveaxis(beams.alpha, -1, 0), beams.beta[..., 1])


def _exposure_weight(state):
    """(N_T, U, N_c) c = sqrt(power_factor * SAR): a link's exposure is
    c^2 / gain."""
    p = state.scenario.params
    return np.sqrt(power_factor(state.shares, p.noise_per_re,
                                p.bandwidth_per_re) * state.sar)


def _equality_powers(state, gamma):
    """Powers meeting each active RE's share exactly (p = power_factor / gain)."""
    active = state.delta > 0
    if np.any(gamma[active] <= 0):
        raise InfeasibleError("an assigned resource element has no usable gain")
    p = state.scenario.params
    powers = np.zeros_like(gamma)
    powers[active] = (power_factor(state.shares[active], p.noise_per_re,
                                   p.bandwidth_per_re) / gamma[active])
    return powers


def _refresh(state):
    """Recompute, in one pass over all slots, the active links' cached gains
    and reference exposures, then the rate-equality powers."""
    l, u, n = np.nonzero(state.delta)
    beams = state.beams[l, u, n]
    h_eff = state.channels.effective(l, n, u, state.thetas[l])
    state.gamma[l, u, n] = channel_gain(h_eff, beams)
    state.sar[l, u, n] = _sar_of(beams, state.scenario.sar_model)
    state.powers[...] = _equality_powers(state, state.gamma)


def _caps_ok(powers, p_max):
    """(N_T,) whether every user of a slot keeps within the cap."""
    return np.all(powers.sum(axis=-1) <= p_max * (1.0 + CAP_SLACK), axis=-1)


def initialize_state(scenario, channel_set, path):
    """Feasible starting point on the given (N_T, 3) flight path: flat phases,
    greedy allocation, equal rate shares, neutral beams, rate-equality powers."""
    p = scenario.params
    channels = channel_set.realize(path)
    nt, u, nc = p.num_slots, p.num_users, p.num_subcarriers
    if p.num_ris_elements > 0:
        d_ur, d_rb, (k1, k2) = channels.d_ur, channels.d_rb, p.ris_pathloss_exps
    else:
        # no surface, so no meaningful distance factor: split by rate burden alone
        d_ur, d_rb, k1, k2 = np.ones((nt, u)), np.ones(nt), 0.0, 0.0
    owner = allocate(scenario.rate_targets, d_ur, d_rb, k1, k2, p.bandwidth_per_re, nc)
    shape = (nt, u, nc)
    state = SolutionState(
        scenario=scenario, channel_set=channel_set, channels=channels,
        trajectory=path, delta=owner.delta.copy(),
        shares=owner.delta * (scenario.rate_targets / owner.counts)[..., None],
        powers=np.zeros(shape), gamma=np.zeros(shape), sar=np.zeros(shape),
        beams=beam_array(shape, *NEUTRAL_BEAM),
        thetas=np.tile(uniform_phases(p.num_ris_elements).values, (nt, 1)),
    )
    _refresh(state)

    spent = state.powers.sum(axis=2)
    bad_users = np.flatnonzero(np.any(spent > p.p_max * (1.0 + CAP_SLACK), axis=0))
    if bad_users.size:
        raise InfeasibleError("initialization exceeds the power cap for users "
                              f"{bad_users.tolist()}")
    return state


def _block_beams(state):
    """Ratio-minimizing beams of every slot's active links.  One search per
    slot group (`channel.slot_groups`) bounds the (links, phases) work
    arrays; a slot with a link that no beam gives positive gain (infinite
    ratio) is unusable and keeps its incumbent rows.  Returns (usable,
    cand): the (N_T,) mask of slots whose every link found a usable beam,
    and the candidate beams, gamma, sar and powers by field name.
    """
    sc = state.scenario
    p = sc.params
    l, u, n = np.nonzero(state.delta)
    k_mat = gram(state.channels.effective(l, n, u, state.thetas[l]))
    factor = power_factor(state.shares[l, u, n], p.noise_per_re, p.bandwidth_per_re)
    found = beam_array(l.size, *NEUTRAL_BEAM)
    usable = np.ones(p.num_slots, dtype=bool)
    for lo, hi in slot_groups(l):
        found[lo:hi], info = optimize_beamformer(k_mat[lo:hi], sc.sar_model, factor[lo:hi])
        usable[l[lo:hi][np.isinf(info.lam)]] = False
    take = usable[l]
    state.counters["beam_unusable"] += int((~usable).sum())
    state.counters["beam_links"] += int(take.sum())
    new_gain = expanded_gain(gram_terms(k_mat), found.alpha[..., 1], found.beta[..., 1])
    new_sar = _sar_of(found, sc.sar_model)
    l, u, n = l[take], u[take], n[take]
    beams, gamma, sar = (arr.copy() for arr in (state.beams, state.gamma, state.sar))
    beams[l, u, n], gamma[l, u, n], sar[l, u, n] = found[take], new_gain[take], new_sar[take]
    return usable, dict(beams=beams, gamma=gamma, sar=sar, powers=_equality_powers(state, gamma))


def _block_phases(state, rngs):
    """Surface-phase refinement of every slot, one ascent per slot with that
    slot's generator; returns (changed, cand), cand holding thetas, gamma and
    powers by field name."""
    p = state.scenario.params
    thetas, gamma = state.thetas.copy(), state.gamma.copy()
    changed = np.zeros(p.num_slots, dtype=bool)
    weight = _exposure_weight(state)
    for ell in range(p.num_slots):
        u, n = np.nonzero(state.delta[ell])
        beams = state.beams[ell, u, n]
        cascade, direct = state.channels.cascade_and_direct(ell, n, u, beam_vector(beams))
        theta = optimize_phases(cascade, direct, np.ones(u.size), weight[ell, u, n],
                                PhaseShiftVector(state.thetas[ell]), rngs[ell],
                                counters=state.counters).values
        state.counters["phase_calls"] += 1
        changed[ell] = not np.array_equal(theta, state.thetas[ell])
        if changed[ell]:
            thetas[ell] = theta
            gamma[ell, u, n] = channel_gain(state.channels.effective(ell, n, u, theta), beams)
    return changed, dict(thetas=thetas, gamma=gamma, powers=_equality_powers(state, gamma))


def _block_power(state):
    """Water-filling for every (slot, user) row in one call: returns (ok,
    cand), cand holding delta (without the elements left dark), shares and
    powers by field name.  When the call fails, cand is empty, so every slot
    keeps its incumbent, and the fallback is counted."""
    p = state.scenario.params
    targets = np.broadcast_to(state.scenario.rate_targets, state.delta.shape[:2])
    try:
        alloc, shares = allocate_power(state.delta, state.gamma, state.sar, targets,
                                       p.p_max, p.noise_per_re, p.bandwidth_per_re)
    except (InfeasibleError, ArithmeticError):
        state.counters["power_fallbacks"] += 1
        return np.zeros(p.num_slots, dtype=bool), {}
    delta = np.where(alloc.powers > 0, state.delta, 0.0)
    return np.ones(p.num_slots, dtype=bool), dict(delta=delta, shares=shares, powers=alloc.powers)


def _sweep_slots(state, phase_rngs):
    """Beams, then phases (unless phase_rngs is None: the phases are
    pinned), then powers, each over all slots and accepted slot by slot."""
    _accept(state, "beams", *_block_beams(state))
    if phase_rngs is not None:
        _accept(state, "phases", *_block_phases(state, phase_rngs))
    _accept(state, "power", *_block_power(state))


def _trajectory_field(state):
    """Frozen-fading gain constants of every active link at the current state.

    A link's reflected path r = (H diag(G f)) theta carries the pathloss
    rho / sqrt(s2), s2 = d_uR^k1 d_RB^k2, so a = |r|^2 s2 and
    b = 2 Re(d^H r) sqrt(s2) are distance-free, with d = Hd f the direct path.
    """
    p = state.scenario.params
    ch = state.channels
    k1, k2 = p.ris_pathloss_exps
    a_un, b_un, resid = (np.zeros(state.delta.shape) for _ in range(3))
    for ell in range(p.num_slots):
        u, n = np.nonzero(state.delta[ell])
        cascade, direct = ch.cascade_and_direct(ell, n, u,
                                                beam_vector(state.beams[ell, u, n]))
        refl = cascade @ state.thetas[ell]
        s2 = ch.d_ur[ell, u] ** k1 * ch.d_rb[ell] ** k2
        a_un[ell, u, n] = np.sum(refl.real ** 2 + refl.imag ** 2, axis=1) * s2
        b_un[ell, u, n] = 2.0 * np.sum((direct.conj() * refl).real, axis=1) * np.sqrt(s2)
        resid[ell, u, n] = np.sum(direct.real ** 2 + direct.imag ** 2, axis=1)
    return GainField(state.delta.copy(), _exposure_weight(state), a_un, b_un, resid, k1, k2)


def _block_trajectory(state, phase_rngs, outer):
    """Flight-path refinement of outer iteration `outer`, accepted in place.

    Moving the platform rotates every line-of-sight direction, so beams and
    phases tuned for the old geometry misalign at the new one.  The
    candidate therefore re-realizes the channels at the moved path (new
    geometry only: the fading draws stay shared with the incumbent) and
    re-runs the slot sweep, pinned phases staying pinned.  It replaces the
    incumbent, logging a `trajectory` event, exactly when every power cap
    holds and the exposure index does not rise.
    """
    sc = state.scenario
    p = sc.params
    if p.num_slots <= 2 or p.num_ris_elements == 0:
        return
    new_traj = optimize_trajectory(
        state.trajectory, _trajectory_field(state), sc.user_positions, sc.bs_position,
        p.max_slot_distance, max_x_rounds=TRAJ_X_ROUNDS,
        max_sca_iters=TRAJ_SCA_ITERS, barrier_tol=TRAJ_BARRIER_TOL,
        counters=state.counters)
    if np.allclose(new_traj.points, state.trajectory, rtol=0, atol=1e-12):
        return
    # a scratch state sharing scenario and counters, with copied arrays
    cand = dataclasses.replace(
        state, trajectory=new_traj.points, trace=[],
        channels=state.channel_set.realize(new_traj.points),
        **{fname: getattr(state, fname).copy() for fname in SLOT_ARRAYS})
    try:
        _refresh(cand)
    except InfeasibleError:
        return
    _sweep_slots(cand, phase_rngs)
    # a failed power call leaves the moved start's caps untested
    if not _caps_ok(cand.powers, p.p_max).all():
        return
    current, moved = state.exposure(), cand.exposure()
    if moved <= current:
        for fname in ("channels", "trajectory") + SLOT_ARRAYS:
            setattr(state, fname, getattr(cand, fname))
        state.trace.append({"event": "trajectory", "outer": outer, "delta": moved - current})


def run_ao(scenario, trial=0, eps=1e-4, max_outer=10, knobs=None,
           enable_trajectory=True, phase_mode="optimized", label="proposed",
           channel_set=None, path=None):
    """Full alternating optimization for one trial, from the (N_T, 3) flight
    path `path` (the straight start-to-end line when omitted; `audit` holds
    its ends to the scenario's).

    Initialization fixes the allocation by the greedy ranking; each outer
    iteration then runs beams, phases and power, each over all slots and
    accepted slot by slot, followed by the flight-path block while
    enable_trajectory holds and fewer than knobs.traj_outers iterations
    have run.

    phase_mode: "optimized" runs the phase sub-block; "zero" pins flat
    phases; "random" pins per-slot random phases from the trial's dedicated
    stream.  Returns (SolutionState, ExposureReport).
    """
    if phase_mode not in ("optimized", "zero", "random"):
        raise ValueError(f"unknown phase mode {phase_mode!r}")
    p = scenario.params
    if channel_set is None:
        channel_set = ChannelSet(scenario, trial)
    if path is None:
        path = straight_trajectory(scenario.aris_start, scenario.aris_end,
                                   scenario.num_slots).points
    state = initialize_state(scenario, channel_set, path)
    if phase_mode == "random" and p.num_ris_elements > 0:
        for ell in range(p.num_slots):
            rng = rng_stream(scenario.rng_seed, trial, ell, 0, STREAM_RANDOM_PHASE)
            state.thetas[ell] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi,
                                                        p.num_ris_elements))
        _refresh(state)
        if not _caps_ok(state.powers, p.p_max).all():
            raise InfeasibleError("random-phase start exceeds the power cap")
    phase_rngs = None
    if phase_mode == "optimized" and p.num_ris_elements > 0:
        phase_rngs = [rng_stream(scenario.rng_seed, trial, ell, 0, STREAM_GR)
                      for ell in range(p.num_slots)]
    path_outers = (knobs or AoKnobs()).traj_outers if enable_trajectory else 0

    current = state.exposure()
    state.trace.append({"event": "init", "exposure": current})
    for outer in range(max_outer):
        start_exposure = current
        _sweep_slots(state, phase_rngs)
        if outer < path_outers:
            _block_trajectory(state, phase_rngs, outer)
        current = state.exposure()
        state.audit()
        state.trace.append({"event": "outer", "outer": outer, "exposure": current})
        if abs(start_exposure - current) <= eps * max(start_exposure, 1e-300):
            break
    return state, state.report(label)


def _accept(state, name, ok, cand):
    """The one per-slot judge of the alternating loop: each slot in the (N_T,)
    mask ok takes its rows of cand, a {state field: (N_T, ...) candidate}
    dict with powers (empty when the block failed), exactly when its own
    exposure sum does not rise and its users keep within p_max (1 +
    CAP_SLACK).  The index sums slot sums first (`exposure.exposure_index`),
    so it cannot rise either.  One trace event is logged per kept slot, its
    delta in index units."""
    if not cand:
        return
    p = state.scenario.params
    rows = np.flatnonzero(ok & _caps_ok(cand["powers"], p.p_max))
    before = state.per_user_exposure().sum(axis=0)
    saved = {}
    for fname, value in cand.items():
        arr = getattr(state, fname)
        saved[fname] = arr[rows]
        arr[rows] = value[rows]
    gain = state.per_user_exposure().sum(axis=0) - before
    keep = gain[rows] <= 0.0
    for fname, old in saved.items():
        getattr(state, fname)[rows[~keep]] = old[~keep]
    scale = p.slot_duration / (p.num_slots * p.num_users)
    for ell in rows[keep]:
        state.trace.append({"event": name, "slot": int(ell), "delta": scale * gain[ell]})


# ---------------------------------------------------------------------------
# benchmark schemes
# ---------------------------------------------------------------------------

def baseline_no_ris(scenario, trial=0, eps=1e-4, max_outer=10, knobs=None,
                    channel_set=None):
    """Direct links only: the surface (and hence its phases and the flight
    path) is removed; beams and powers still optimize.  A given channel_set
    (the trial's, with the surface) lends its direct-link draws."""
    from .scenario import scenario_with
    bare = scenario_with(scenario, num_ris_elements=0)
    if channel_set is not None:
        channel_set = channel_set.without_surface(bare)
    _, report = run_ao(bare, trial=trial, eps=eps, max_outer=max_outer,
                       knobs=knobs, enable_trajectory=False, label="no-ris",
                       channel_set=channel_set)
    return report


def _hover_exposure(scenario, channel_set, position):
    """Initialization-pipeline exposure with the platform parked at one spot.

    The fading draws in channel_set do not depend on the platform position,
    so probes at different hover points legitimately share one set."""
    p = scenario.params
    pos = np.asarray([position[0], position[1], p.aris_height])
    try:
        state = initialize_state(
            scenario, channel_set, straight_trajectory(pos, pos, p.num_slots).points)
    except InfeasibleError:
        return np.inf
    return state.exposure()


def fixed_position_search(scenario, trial=0, channel_set=None):
    """Divide-and-conquer hover-point search over the eight offsets of a 3x3
    stencil at the current radius.  The center moves as soon as one probe
    improves on the best value, in the middle of a stencil, so the stencil's
    later offsets are taken from the new center.  A stencil that moves the
    center is followed by another at the same radius; one that does not
    halves the radius, and the search stops below HOVER_RESOLUTION.
    Each distinct point is probed once (stencils overlap, on exact dyadic
    fractions of the radius), its value then remembered."""
    if channel_set is None:
        channel_set = ChannelSet(scenario, trial)

    @functools.lru_cache(maxsize=None)
    def value(x, y):
        return _hover_exposure(scenario, channel_set, (x, y))

    center = np.zeros(2)
    radius = float(scenario.cell_radius)
    best_val = value(*center.tolist())
    while radius >= HOVER_RESOLUTION:
        moved = False
        for dx in (-radius, 0.0, radius):
            for dy in (-radius, 0.0, radius):
                if dx == 0.0 and dy == 0.0:
                    continue
                cand = center + np.array([dx, dy])
                if np.hypot(*cand) > scenario.cell_radius:
                    continue
                val = value(*cand.tolist())
                if val < best_val:
                    best_val, center, moved = val, cand, True
        if not moved:
            radius *= 0.5
    return center


def march_path(start, target, d_max, num_slots):
    """Slot positions of a platform flying from `start` toward `target` at
    full speed, parking there once reached. Shape (num_slots, 3)."""
    points = [np.asarray(start, dtype=float)]
    target = np.asarray(target, dtype=float)
    for _ in range(1, num_slots):
        gap = target - points[-1]
        dist = float(np.linalg.norm(gap))
        if dist <= d_max:
            points.append(target.copy())
        else:
            points.append(points[-1] + gap / dist * d_max)
    return np.asarray(points)


def hover_path(scenario, trial=0, channel_set=None):
    """(path, hover): the fixed scheme's (N_T, 3) march from the start toward
    the hover point of `fixed_position_search`, lifted to aris_height."""
    p = scenario.params
    hover = np.append(fixed_position_search(scenario, trial=trial, channel_set=channel_set),
                      p.aris_height)
    return march_path(scenario.aris_start, hover, p.max_slot_distance, p.num_slots), hover


def baseline_fixed_ris(scenario, trial=0, eps=1e-4, max_outer=10, knobs=None,
                       channel_set=None, direct=None):
    """Surface hovering at a recursively chosen spot; slots spent flying
    there are charged at the no-surface policy's exposure.

    The platform leaves its start point at full speed toward the hover
    position; slots before arrival count as travel.  Hover slots run
    `run_ao` on that march path with the path block off, the scenario's
    ends pinned to the path's; travel slots inherit the direct-only
    benchmark's per-slot exposure: `direct`, the trial's no-surface report
    under the same arguments, when the caller has one, else a fresh
    baseline_no_ris solve.
    """
    p = scenario.params
    if channel_set is None:
        channel_set = ChannelSet(scenario, trial)
    path, hover = hover_path(scenario, trial=trial, channel_set=channel_set)
    travel = ~np.all(np.isclose(path, hover[None, :]), axis=1)

    pinned = dataclasses.replace(scenario, aris_start=path[0], aris_end=path[-1])
    _, report = run_ao(pinned, trial=trial, eps=eps, max_outer=max_outer, knobs=knobs,
                       enable_trajectory=False, label="fixed-ris",
                       channel_set=channel_set, path=path)
    if not np.any(travel):
        return report
    if direct is None:
        direct = baseline_no_ris(scenario, trial=trial, eps=eps, max_outer=max_outer,
                                 knobs=knobs, channel_set=channel_set)
    per_user = report.per_user_exposure.copy()
    per_user[:, travel] = direct.per_user_exposure[:, travel]
    return ExposureReport(per_user, exposure_index(per_user, p.slot_duration),
                          np.minimum(report.achieved_rates, direct.achieved_rates),
                          "fixed-ris")
