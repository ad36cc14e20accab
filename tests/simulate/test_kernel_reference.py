"""The kernel against a frozen copy of its per-session-generator form.

``reference_simulate`` below is the kernel as it was before Case-6
sampling moved to lazily built generators, per-session candidate tapes
and the one-pass min-cap pick: one live ``spawn(seed, "session", i,
"kernel")`` generator per session, one ``random((2, k))`` call per
sampling session per round, and a masked scan over every candidate.
The fast kernel must return the same bits for every record, including
NaNs, on pool batches, strided index sets, every cost kind the kernel
implements, every ``(n_price_samples, max_rounds)`` shape below, rows
that reach the masked min-cap fallback, and games long enough to grow
the offer trail and refill the tape many times.

The frozen kernel reads per-session arrays (an ``(n, F)`` catalogue and
per-row ``n_price_samples``/``max_rounds``); :func:`_reference_inputs`
lays a population's sessions out that way.
"""

import dataclasses
import types

import numpy as np
import pytest

from repro.simulate import kernel
from repro.simulate.kernel import (
    BY_DATA,
    BY_ENGINE,
    BY_TASK,
    STATUS_ACCEPTED,
    STATUS_FAILED,
    STATUS_MAX_ROUNDS,
    simulate_strategic_batch,
)
from repro.simulate.population import PopulationSpec, sample_population
from repro.utils.rng import spawn

_COST_NONE, _COST_CONSTANT, _COST_LINEAR, _COST_EXPONENTIAL = 0, 1, 2, 3

ALL_COSTS = (("none", 0.0, 1.0), ("constant", 0.5, 1.0),
             ("linear", 0.01, 1.0), ("exponential", 1.01, 1.0))
#: ``(n_price_samples, max_rounds)`` shapes, one population each.
SHAPES = ((1, 500), (3, 50), (31, 2), (120, 1), (3, 500), (1, 2), (120, 50),
          (31, 500))


def _cost_at(kind: np.ndarray, a: np.ndarray, round_number: int) -> np.ndarray:
    """Cumulative bargaining cost per session after ``round_number``."""
    cost = np.zeros(len(kind))
    mask = kind == _COST_CONSTANT
    cost[mask] = a[mask]
    mask = kind == _COST_LINEAR
    cost[mask] = a[mask] * round_number
    mask = kind == _COST_EXPONENTIAL
    cost[mask] = a[mask] ** round_number
    return cost


def reference_simulate(batch, gens) -> dict[str, np.ndarray]:
    """The frozen kernel; ``gens[i]`` is session ``i``'s live stream."""
    n = len(batch)
    G = batch.gains  # (n, F) per-session catalogues (padded rows allowed)
    res_rate = batch.reserved_rate
    res_base = batch.reserved_base
    u = batch.utility_rate
    budget = batch.budget
    p0 = batch.initial_rate
    b0 = batch.initial_base
    target = batch.target
    eps_d = batch.eps_d
    eps_t = batch.eps_t
    eps_dc = batch.eps_dc
    eps_tc = batch.eps_tc
    cost_kind = batch.cost_kind
    cost_a = batch.cost_a
    ns = batch.n_price_samples
    mr = batch.max_rounds
    mr_max = int(mr.max())
    has_cost = cost_kind != _COST_NONE
    break_even = b0 / (u - p0)  # Case-4 bar, anchored to the opening quote


    # Standing quote per session (opens Eq.5-consistent at the target).
    rate = p0.copy()
    base = b0.copy()
    cap = b0 + p0 * target

    # Terminal records.
    status = np.zeros(n, dtype=np.int8)
    terminated_by = np.zeros(n, dtype=np.int8)
    n_rounds = np.zeros(n, dtype=np.int32)
    out_gain = np.full(n, np.nan)
    out_pay = np.zeros(n)
    out_net = np.zeros(n)
    out_ct = np.zeros(n)
    out_cd = np.zeros(n)
    out_rate = np.full(n, np.nan)
    out_base = np.full(n, np.nan)
    out_cap = np.full(n, np.nan)

    # Offer trail for the Case-4 regression test (grown on demand).
    trail_width = min(64, mr_max)
    tr_rate = np.empty((n, trail_width))
    tr_base = np.empty((n, trail_width))
    tr_gain = np.empty((n, trail_width))

    def finalise(rows, *, st, by, T, gain=None, pay=None, net=None, ct=None, cd=None,
                 q_rate=None, q_base=None, q_cap=None):
        status[rows] = st
        terminated_by[rows] = by
        n_rounds[rows] = T
        if gain is not None:
            out_gain[rows] = gain
            out_pay[rows] = pay
            out_net[rows] = net
        out_ct[rows] = ct
        out_cd[rows] = cd
        out_rate[rows] = q_rate
        out_base[rows] = q_base
        out_cap[rows] = q_cap

    live = np.arange(n)
    for T in range(1, mr_max + 1):
        if live.size == 0:
            break
        rate_l, base_l, cap_l = rate[live], base[live], cap[live]
        tp = (cap_l - base_l) / rate_l  # turning point (== target up to fp)
        cost_r = _cost_at(cost_kind[live], cost_a[live], T)
        cost_r1 = _cost_at(cost_kind[live], cost_a[live], T + 1)

        # --- Step 2: the data party reacts (Cases 1-3) -----------------
        afford = (res_rate[live] <= rate_l[:, None] + 1e-12) & (
            res_base[live] <= base_l[:, None] + 1e-12
        )
        any_aff = afford.any(axis=1)
        if not any_aff.all():  # Case 1: no affordable bundle -> fail
            dead = ~any_aff
            finalise(live[dead], st=STATUS_FAILED, by=BY_DATA, T=T,
                     ct=cost_r[dead], cd=cost_r[dead],
                     q_rate=rate_l[dead], q_base=base_l[dead], q_cap=cap_l[dead])
            keep = any_aff
            live, rate_l, base_l, cap_l, tp = (
                live[keep], rate_l[keep], base_l[keep], cap_l[keep], tp[keep])
            afford, cost_r, cost_r1 = afford[keep], cost_r[keep], cost_r1[keep]

        # Eq. 4 offer: the affordable gain closest to the turning point
        # from below; if everything overshoots, the smallest overshoot.
        G_l = G[live]
        below = afford & (G_l <= tp[:, None])
        g_below = np.where(below, G_l, -np.inf).max(axis=1)
        g_over = np.where(afford, G_l, np.inf).min(axis=1)
        gain = np.where(np.isfinite(g_below), g_below, g_over)
        payment = np.minimum(np.maximum(base_l, base_l + rate_l * gain), cap_l)
        net = u[live] * gain - payment

        accept_d = (tp - gain) <= eps_d[live]  # Case 2
        costly = has_cost[live]
        if costly.any():  # Eq. 6 look-ahead acceptance
            tgt = np.abs(G_l - tp[:, None]).argmin(axis=1)
            rows_l = np.arange(live.size)
            rrt = res_rate[live][rows_l, tgt]
            rbt = res_base[live][rows_l, tgt]
            lhs = base_l + rate_l * gain - cost_r
            nxt = np.maximum(rbt, base_l) + np.maximum(rrt, rate_l) * tp
            rhs = nxt - cost_r1 - eps_dc[live]
            accept_d |= costly & (lhs >= rhs)
        if accept_d.any():
            acc = accept_d
            finalise(live[acc], st=STATUS_ACCEPTED, by=BY_DATA, T=T,
                     gain=gain[acc], pay=payment[acc], net=net[acc],
                     ct=cost_r[acc], cd=cost_r[acc],
                     q_rate=rate_l[acc], q_base=base_l[acc], q_cap=cap_l[acc])
            keep = ~accept_d
            live, rate_l, base_l, cap_l, tp = (
                live[keep], rate_l[keep], base_l[keep], cap_l[keep], tp[keep])
            gain, payment, net = gain[keep], payment[keep], net[keep]
            cost_r, cost_r1 = cost_r[keep], cost_r1[keep]
        if live.size == 0:
            continue

        # --- Step 1 of the next round: the task party reacts (4-6) -----
        k = T - 1
        if k > 0:
            dom = (rate_l[:, None] >= tr_rate[live, :k] - 1e-12) & (
                base_l[:, None] >= tr_base[live, :k] - 1e-12
            )
            best_dom = np.where(dom, tr_gain[live, :k], -np.inf).max(axis=1)
        else:
            best_dom = np.full(live.size, -np.inf)
        if k >= trail_width:  # grow the trail (games rarely get here)
            grow = min(trail_width, mr_max - trail_width)
            pad = np.empty((n, grow))
            tr_rate = np.concatenate([tr_rate, pad], axis=1)
            tr_base = np.concatenate([tr_base, pad], axis=1)
            tr_gain = np.concatenate([tr_gain, pad], axis=1)
            trail_width += grow
        tr_rate[live, k] = rate_l
        tr_base[live, k] = base_l
        tr_gain[live, k] = gain

        fail_t = (gain < break_even[live]) & (gain < best_dom)  # Case 4
        accept_t = gain >= tp - eps_t[live]  # Case 5
        costly = has_cost[live]
        if costly.any():  # Eq. 7 look-ahead acceptance
            lhs = u[live] * gain - (base_l + rate_l * gain) - cost_r
            rhs = u[live] * tp - cap_l - cost_r1 - eps_tc[live]
            accept_t |= costly & (lhs >= rhs)
        accept_t &= ~fail_t  # failure checked first, as in the engine

        # Case 6: escalated Eq.5-consistent candidates, min-cap pick.
        running = ~fail_t & ~accept_t
        exhausted = running & (cap_l >= budget[live] - 1e-12)
        sample = running & ~exhausted
        rows = np.flatnonzero(sample)
        if rows.size:
            ns_rows = ns[live[rows]]
            width = int(ns_rows.max())
            draws = np.zeros((rows.size, 2, width))
            for ii, row in enumerate(rows):
                k_row = int(ns_rows[ii])
                draws[ii, :, :k_row] = gens[live[row]].random((2, k_row))
            cl = cap_l[rows, None]
            caps = cl + (budget[live[rows], None] - cl) * draws[:, 0, :]
            valid = caps > cl + 1e-12
            # Padded sample columns (heterogeneous n_price_samples)
            # draw 0.0, land exactly on cl, and fail the > check; the
            # explicit mask keeps that invariant independent of fp.
            valid &= np.arange(width)[None, :] < ns_rows[:, None]
            rate_high = np.minimum(
                u[live[rows], None],
                (caps - b0[live[rows], None]) / target[live[rows], None],
            )
            valid &= rate_high > p0[live[rows], None]
            rates = (
                p0[live[rows], None]
                + (rate_high - p0[live[rows], None]) * draws[:, 1, :]
            )
            masked = np.where(valid, caps, np.inf)
            pick = masked.argmin(axis=1)
            got = valid[np.arange(rows.size), pick]
            # No admissible candidate left: accept the standing outcome
            # rather than walk away from a profitable trade.
            exhausted[rows[~got]] = True
            ok = rows[got]
            new_cap = caps[np.arange(rows.size), pick][got]
            new_rate = rates[np.arange(rows.size), pick][got]
            cap[live[ok]] = new_cap
            rate[live[ok]] = new_rate
            base[live[ok]] = new_cap - new_rate * target[live[ok]]

        accept_t |= exhausted
        if fail_t.any() or accept_t.any():
            for mask, st, by in ((fail_t, STATUS_FAILED, BY_TASK),
                                 (accept_t, STATUS_ACCEPTED, BY_TASK)):
                if mask.any():
                    finalise(live[mask], st=st, by=by, T=T,
                             gain=gain[mask], pay=payment[mask], net=net[mask],
                             ct=cost_r[mask], cd=cost_r[mask],
                             q_rate=rate_l[mask], q_base=base_l[mask],
                             q_cap=cap_l[mask])
        cont = ~fail_t & ~accept_t
        capped = cont & (mr[live] == T)  # per-session round cap
        if capped.any():  # round cap: counted as failed
            finalise(live[capped], st=STATUS_MAX_ROUNDS, by=BY_ENGINE, T=T,
                     gain=gain[capped], pay=payment[capped], net=net[capped],
                     ct=cost_r[capped], cd=cost_r[capped],
                     q_rate=rate_l[capped], q_base=base_l[capped],
                     q_cap=cap_l[capped])
        live = live[cont & ~capped]

    return {
        "status": status,
        "terminated_by": terminated_by,
        "n_rounds": n_rounds,
        "delta_g": out_gain,
        "payment": out_pay,
        "net_profit": out_net,
        "cost_task": out_ct,
        "cost_data": out_cd,
        "final_rate": out_rate,
        "final_base": out_base,
        "final_cap": out_cap,
    }


def _kernel_generators(population, indices):
    return [spawn(population.seed, "session", int(i), "kernel") for i in indices]


class _Sessions(types.SimpleNamespace):
    def __len__(self):
        return len(self.gains)


def _reference_inputs(population, indices):
    """``population``'s sessions at ``indices`` as per-session arrays."""
    n, spec = len(indices), population.spec
    per_session = {
        name: getattr(population, name)[indices]
        for name in ("reserved_rate", "reserved_base", "utility_rate", "budget",
                     "initial_rate", "initial_base", "target", "eps_d",
                     "eps_t", "eps_dc", "eps_tc", "cost_kind", "cost_a")
    }
    return _Sessions(
        gains=np.broadcast_to(population.gains, (n, len(population.gains))),
        n_price_samples=np.full(n, spec.n_price_samples),
        max_rounds=np.full(n, spec.max_rounds),
        **per_session,
    )


def _population(seed, n_sessions=60, **spec):
    return sample_population(PopulationSpec(preset="synthetic", **spec),
                             n_sessions, seed=seed)


def _assert_bit_identical(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key], equal_nan=True), key


def _check(pop, indices=None):
    """Run ``pop``'s sessions at ``indices`` (all by default) through
    both kernels."""
    if indices is None:
        indices = np.arange(pop.n_sessions)
    want = reference_simulate(_reference_inputs(pop, indices),
                              _kernel_generators(pop, indices))
    _assert_bit_identical(simulate_strategic_batch(pop, indices), want)
    return want


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the rows the masked min-cap fallback had to resolve."""
    calls = []
    real = kernel._masked_min_cap

    def spy(caps, *args):
        calls.append(len(caps))
        return real(caps, *args)

    monkeypatch.setattr(kernel, "_masked_min_cap", spy)
    return calls


class TestAgainstFrozenKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pool_batches(self, seed):
        _check(_population(seed, n_sessions=120,
                           cost_mix=(("none", 0.0, 1.0), ("linear", 0.001, 1.0),
                                     ("exponential", 1.001, 1.0))))

    def test_every_cost_kind(self):
        out = _check(_population(7, n_sessions=160, cost_mix=ALL_COSTS))
        assert set(np.unique(out["status"])) >= {STATUS_ACCEPTED, STATUS_FAILED}

    def test_strided_indices(self):
        pop = _population(8, n_sessions=160, cost_mix=ALL_COSTS)
        _check(pop, np.arange(3, pop.n_sessions, 7))

    @pytest.mark.parametrize(
        "j, n_price_samples, max_rounds",
        [(j, ns, mr) for j, (ns, mr) in enumerate(SHAPES)],
        ids=[f"ns{ns}-mr{mr}" for ns, mr in SHAPES],
    )
    def test_sampling_depths_and_round_caps(self, j, n_price_samples, max_rounds):
        out = _check(_population(20 + j, n_sessions=30, n_bundles=8 + 8 * j,
                                 n_price_samples=n_price_samples,
                                 max_rounds=max_rounds, cost_mix=ALL_COSTS))
        assert (out["n_rounds"] <= max_rounds).all()
        if max_rounds <= 2:
            assert (out["status"] == STATUS_MAX_ROUNDS).any()

    def test_masked_min_cap_fallback(self, fallbacks):
        """A budget 5e-12 above the opening cap puts a fifth of the
        candidates within the 1e-12 "raises the cap" margin, so the
        smallest cap is nearly always inadmissible and the masked pick
        must resolve it."""
        pop = _population(9, n_sessions=80)
        pop = dataclasses.replace(
            pop, budget=pop.initial_base + pop.initial_rate * pop.target + 5e-12,
        )
        _check(pop)
        assert sum(fallbacks) > 0

    def test_long_games_grow_the_trail_and_refill_the_tape(self):
        pop = _population(5, n_sessions=400, n_price_samples=240)
        out = _check(pop)
        # Past 64 rounds the offer trail grows; past 8 tape windows the
        # tape has been refilled at least 8 times.
        assert out["n_rounds"].max() > max(64, 8 * kernel._TAPE_ROUNDS)

    def test_single_round_budget_tape(self, monkeypatch):
        # A one-round tape refills on every sampling round.
        monkeypatch.setattr(kernel, "_TAPE_BYTES", 1)
        _check(_population(6, n_sessions=80, cost_mix=ALL_COSTS))
