"""Vectorised round kernel for perfect-information sessions.

This is the batch-scheduling fast path of the simulator: it advances a
whole batch of sessions one round at a time with numpy array
operations, instead of paying the per-round Python costs of
:class:`~repro.market.engine.BargainingEngine`.  Every session plays
the strategic data party (Eq. 4 offers, Cases 1-3, the Eq. 6 cost-aware
acceptance) and the shared Case-4/5 task-party checks; the task party's
escalation rule is per session, from the session's strategy mix:

* **strategic** rows add the Eq. 7 acceptance and Algorithm 1's
  escalated candidate sampling with min-cap selection.  They keep the
  same sampling *distributions* as the engine but consume their RNG
  stream in a different order (array draws instead of interleaved
  scalar draws), so they are statistically, not bitwise, equivalent to
  ``BargainingEngine.run()`` (``tests/simulate/test_pool.py`` pins the
  aggregate agreement);
* **Increase-Price** rows (§4.2's baseline,
  :class:`~repro.market.strategies.baselines.IncreasePriceTaskParty`)
  have no Eq. 7 and escalate by the strategy's multiplicative steps
  (the module-level ``RATE_STEP``/``BASE_STEP``/``CAP_STEP``), clipped
  to ``u/2`` and the budget, accepting once the price box saturates.
  They read the engine's own stream, three doubles per continuation in
  the engine's order (rate, base, cap), and compute exponential costs
  with Python ``float ** int`` as the engine does (numpy's ``**`` can
  round one ulp differently), so each such session is draw-for-draw
  identical to ``population.build_engine(i).run()``
  (``tests/simulate/test_kernel_baselines.py``).

Determinism contract: every random draw comes from the session's own
stream — ``spawn(seed, "session", i, "kernel")`` for strategic rows,
``spawn(seed, "session", i, "task")`` for Increase-Price rows —
consumed in round order, so results are independent of how sessions
are grouped into batches (pinned by
``tests/simulate/test_determinism.py`` and
``tests/simulate/test_kernel_batches.py``).  Each call derives every
stream's four PCG64 seed words for the whole batch in one pass
(:func:`~repro.utils.rng.stream_seed_words`) and builds fresh
generators from them, so running the same sessions again gives the
same records.

One call runs sessions of one population: they share its catalogue
(broadcast as a single ``(1, F)`` row, as the platform computes each
bundle's ΔG once in §3.4) and its protocol constants
``spec.n_price_samples`` and ``spec.max_rounds``.

Case-6 candidate sampling costs a fixed number of numpy calls per
round plus a few calls per session per run:

* a session's generator is built the first time it reaches Case 6,
  so a session that ends before sampling never builds one;
* each session reads its ``(2, n_price_samples)`` candidate draws
  (an Increase-Price session: its three step draws) from a per-session
  tape of up to ``_TAPE_ROUNDS`` rounds, refilled with one ``random``
  call per block of 1, 2, 4, ... rounds.  ``random`` fills in C order,
  so round ``r`` of the tape holds exactly the doubles of the ``r``-th
  ``random((2, n_price_samples))`` call (of the ``r``-th continuation's
  three ``uniform(0, step)`` calls, each ``step * random()``).  Drawing
  past a session's last round is unobservable: its generator lives
  only for one kernel call;
* the min-cap pick takes the unmasked ``argmin`` of the candidate caps
  and checks validity for the picked candidate only.  When the first
  index of the global minimum is valid it is also the first index of
  the masked minimum, so only rows whose pick is invalid fall back to
  the masked ``where``/``argmin``.
"""

from __future__ import annotations

import numpy as np

from repro.market.strategies.baselines import BASE_STEP, CAP_STEP, RATE_STEP
from repro.utils.rng import generator_from_seed_words, stream_seed_words

__all__ = [
    "BY_DATA",
    "BY_ENGINE",
    "BY_TASK",
    "STATUS_ACCEPTED",
    "STATUS_FAILED",
    "STATUS_MAX_ROUNDS",
    "simulate_strategic_batch",
]

STATUS_ACCEPTED = 1
STATUS_FAILED = 2
STATUS_MAX_ROUNDS = 3

BY_DATA = 1
BY_TASK = 2
BY_ENGINE = 3

_COST_NONE, _COST_CONSTANT, _COST_LINEAR, _COST_EXPONENTIAL = 0, 1, 2, 3

#: Longest candidate-tape block, in rounds, and the tape's size cap.
_TAPE_ROUNDS = 8
_TAPE_BYTES = 64 << 20


def _cost_at(kind: np.ndarray, a: np.ndarray, round_number: int,
             scalar_pow: np.ndarray | None = None) -> np.ndarray:
    """Cumulative bargaining cost per session after ``round_number``.

    ``scalar_pow`` marks exponential rows computed as Python
    ``float ** int``, the engine's :class:`~repro.market.costs.ExponentialCost`
    arithmetic; numpy's ``**`` can round those one ulp differently.
    """
    cost = np.zeros(len(kind))
    mask = kind == _COST_CONSTANT
    cost[mask] = a[mask]
    mask = kind == _COST_LINEAR
    cost[mask] = a[mask] * round_number
    mask = kind == _COST_EXPONENTIAL
    cost[mask] = a[mask] ** round_number
    if scalar_pow is not None and scalar_pow.any():
        cost[scalar_pow] = [x**round_number for x in a[scalar_pow].tolist()]
    return cost


def _masked_min_cap(caps, cl, u, b0, p0, target):
    """Masked min-cap pick over whole candidate rows.

    Returns ``(pick, got, cap, rate_high)``: the first index of the
    smallest admissible cap, whether any candidate was admissible, and
    that candidate's cap and rate ceiling.  A candidate is admissible
    when it raises the cap and leaves a rate above the opening rate.
    """
    valid = caps > cl[:, None] + 1e-12
    rate_high = np.minimum(u[:, None], (caps - b0[:, None]) / target[:, None])
    valid &= rate_high > p0[:, None]
    pick = np.where(valid, caps, np.inf).argmin(axis=1)
    at = np.arange(len(pick))
    return pick, valid[at, pick], caps[at, pick], rate_high[at, pick]


def simulate_strategic_batch(population, indices: np.ndarray) -> dict[str, np.ndarray]:
    """Run the sessions in ``indices`` (all kernel-eligible, see
    :meth:`~repro.simulate.population.Population.kernel_eligible`) to
    termination and return their terminal records as arrays.

    Returned keys: ``status``, ``terminated_by``, ``n_rounds``,
    ``delta_g``, ``payment``, ``net_profit``, ``cost_task``,
    ``cost_data``, ``final_rate``, ``final_base``, ``final_cap`` — the
    same quantities a :class:`~repro.market.engine.BargainOutcome`
    carries, in ``indices`` order.
    """
    pop = population
    indices = np.asarray(indices, dtype=int)
    n = len(indices)
    G = pop.gains[None, :]  # (1, F): one catalogue, broadcast over rows
    res_rate = pop.reserved_rate[indices]
    res_base = pop.reserved_base[indices]
    u = pop.utility_rate[indices]
    budget = pop.budget[indices]
    p0 = pop.initial_rate[indices]
    b0 = pop.initial_base[indices]
    target = pop.target[indices]
    eps_d = pop.eps_d[indices]
    eps_t = pop.eps_t[indices]
    eps_dc = pop.eps_dc[indices]
    eps_tc = pop.eps_tc[indices]
    cost_kind = pop.cost_kind[indices]
    cost_a = pop.cost_a[indices]
    W = int(pop.spec.n_price_samples)
    max_rounds = int(pop.spec.max_rounds)
    has_cost = cost_kind != _COST_NONE
    break_even = b0 / (u - p0)  # Case-4 bar, anchored to the opening quote
    by_mix = np.array([task == "increase_price"
                       for task, _, _ in pop.spec.strategy_mix])
    inc = by_mix[pop.mix_idx[indices]]
    seed_words = stream_seed_words(
        pop.seed, indices, prefix=("session",), suffix=("kernel",)
    )
    any_inc = bool(inc.any())
    if any_inc:  # these rows read the engine's own stream
        seed_words[inc] = stream_seed_words(
            pop.seed, indices[inc], prefix=("session",), suffix=("task",)
        )
    eq7 = has_cost & ~inc  # Increase Price has no Eq. 7 acceptance
    scalar_pow = inc & (cost_kind == _COST_EXPONENTIAL)
    if not scalar_pow.any():
        scalar_pow = None

    # Case-6 candidate tape: tape[s, r] holds the (2, W) draws of one
    # round for session s, filled in blocks and read at pos[s].
    win = int(np.clip(_TAPE_BYTES // (n * 2 * W * 8), 1, _TAPE_ROUNDS))
    tape = np.zeros((n, win, 2, W))  # zero pages stay untouched until drawn
    # Increase-Price rows keep their (rate, base, cap) draws per round
    # in a tape of their own, behind the same positions and refills.
    inc_tape = np.zeros((n, win, 3)) if any_inc else None
    gens: list = [None] * n
    pos = np.zeros(n, dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    block = np.ones(n, dtype=np.int64)

    def tape_positions(sess: np.ndarray) -> np.ndarray:
        """This round's tape slot for each of ``sess``; used-up tapes
        are refilled with one ``random`` call per session."""
        used_up = sess[pos[sess] == filled[sess]]
        if used_up.size:
            k_up = block[used_up]
            for s, k in zip(used_up.tolist(), k_up.tolist()):
                gen = gens[s]
                if gen is None:
                    gen = gens[s] = generator_from_seed_words(seed_words[s])
                gen.random(out=inc_tape[s, :k] if inc[s] else tape[s, :k])
            filled[used_up] = k_up
            pos[used_up] = 0
            block[used_up] = np.minimum(2 * k_up, win)
        at_pos = pos[sess]
        pos[sess] += 1
        return at_pos

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
    trail_width = min(64, max_rounds)
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
    for T in range(1, max_rounds + 1):
        if live.size == 0:
            break
        rate_l, base_l, cap_l = rate[live], base[live], cap[live]
        tp = (cap_l - base_l) / rate_l  # turning point (== target up to fp)
        pow_l = scalar_pow[live] if scalar_pow is not None else None
        cost_r = _cost_at(cost_kind[live], cost_a[live], T, pow_l)
        cost_r1 = _cost_at(cost_kind[live], cost_a[live], T + 1, pow_l)

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
        below = afford & (G <= tp[:, None])
        g_below = np.where(below, G, -np.inf).max(axis=1)
        g_over = np.where(afford, G, np.inf).min(axis=1)
        gain = np.where(np.isfinite(g_below), g_below, g_over)
        payment = np.minimum(np.maximum(base_l, base_l + rate_l * gain), cap_l)
        net = u[live] * gain - payment

        accept_d = (tp - gain) <= eps_d[live]  # Case 2
        costly = has_cost[live]
        if costly.any():  # Eq. 6 look-ahead acceptance
            tgt = np.abs(G - tp[:, None]).argmin(axis=1)
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
            grow = min(trail_width, max_rounds - trail_width)
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
        costly = eq7[live]
        if costly.any():  # Eq. 7 look-ahead acceptance
            lhs = u[live] * gain - (base_l + rate_l * gain) - cost_r
            rhs = u[live] * tp - cap_l - cost_r1 - eps_tc[live]
            accept_t |= costly & (lhs >= rhs)
        accept_t &= ~fail_t  # failure checked first, as in the engine

        # Case 6, strategic rows: escalated Eq.5-consistent candidates,
        # min-cap pick.
        running = ~fail_t & ~accept_t
        if any_inc:
            escalate = running & inc[live]
            running &= ~escalate
        exhausted = running & (cap_l >= budget[live] - 1e-12)
        sample = running & ~exhausted
        rows = np.flatnonzero(sample)
        if rows.size:
            sess = live[rows]
            at_pos = tape_positions(sess)
            cl = cap_l[rows]
            # cl + (budget - cl) * draw, in place on the gathered draws
            caps = tape[sess, at_pos, 0]
            caps *= (budget[sess] - cl)[:, None]
            caps += cl[:, None]
            u_s, b0_s, p0_s, tg_s = u[sess], b0[sess], p0[sess], target[sess]
            at = np.arange(rows.size)
            pick = caps.argmin(axis=1)
            new_cap = caps[at, pick]
            rate_high = np.minimum(u_s, (new_cap - b0_s) / tg_s)
            got = (new_cap > cl + 1e-12) & (rate_high > p0_s)
            if not got.all():
                bad = np.flatnonzero(~got)
                pick[bad], got[bad], new_cap[bad], rate_high[bad] = _masked_min_cap(
                    caps[bad], cl[bad], u_s[bad], b0_s[bad], p0_s[bad],
                    tg_s[bad],
                )
            new_rate = p0_s + (rate_high - p0_s) * tape[sess, at_pos, 1, pick]
            # No admissible candidate left: accept the standing outcome
            # rather than walk away from a profitable trade.
            exhausted[rows[~got]] = True
            ok = sess[got]
            new_cap, new_rate = new_cap[got], new_rate[got]
            cap[ok] = new_cap
            rate[ok] = new_rate
            base[ok] = new_cap - new_rate * target[ok]

        # Case 6, Increase Price: the engine's multiplicative steps.
        if any_inc and escalate.any():
            rows = np.flatnonzero(escalate)
            sess = live[rows]
            draws = inc_tape[sess, tape_positions(sess)]  # rate, base, cap
            r_l, b_l, c_l = rate_l[rows], base_l[rows], cap_l[rows]
            new_rate = np.minimum(r_l * (1.0 + RATE_STEP * draws[:, 0]),
                                  u[sess] * 0.5)
            new_base = b_l * (1.0 + BASE_STEP * draws[:, 1])
            new_cap = np.minimum(c_l * (1.0 + CAP_STEP * draws[:, 2]),
                                 budget[sess])
            new_base = np.minimum(new_base, new_cap)
            # A saturated price box has nothing left to concede: accept.
            stuck = (new_rate <= r_l) & (new_base <= b_l) & (new_cap <= c_l)
            exhausted[rows[stuck]] = True
            moved = ~stuck
            ok = sess[moved]
            rate[ok] = new_rate[moved]
            base[ok] = new_base[moved]
            cap[ok] = new_cap[moved]

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
        if T == max_rounds and cont.any():  # round cap: counted as failed
            finalise(live[cont], st=STATUS_MAX_ROUNDS, by=BY_ENGINE, T=T,
                     gain=gain[cont], pay=payment[cont], net=net[cont],
                     ct=cost_r[cont], cd=cost_r[cont],
                     q_rate=rate_l[cont], q_base=base_l[cont],
                     q_cap=cap_l[cont])
        live = live[cont]

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
