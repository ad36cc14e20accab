"""Vectorised round kernel for perfect-information sessions.

This is the batch-scheduling fast path of the simulator: it advances a
whole batch of sessions one round at a time with numpy array
operations, instead of paying the per-round Python costs of
:class:`~repro.market.engine.BargainingEngine`.  Every session plays
the strategic data party (Eq. 4 offers, Cases 1-3, the Eq. 6 cost-aware
acceptance) and the shared Case-4/5 task-party checks; the task party's
escalation rule is per session, from the session's strategy mix:
**strategic** rows add the Eq. 7 acceptance and Algorithm 1's
escalated candidate sampling with min-cap selection;
**Increase-Price** rows (§4.2's baseline) have no Eq. 7 and escalate
by the strategy's multiplicative step, accepting once the price box
saturates.

The kernel is an exact vectorisation of the engine, not a second
statement of the rules: every session's record equals
``population.build_engine(i).run()`` bit for bit
(``tests/simulate/test_kernel_reference.py``,
``tests/simulate/test_kernel_baselines.py``).  Each row reads the
engine's own stream ``spawn(seed, "session", i, "task")`` in the
engine's order, and every rule is the function the engine's parties
call, applied to the live rows: Case 1, the Eq. 4 offer and Eq. 6's
target are :func:`~repro.market.strategies.data_party.offer_rows`;
Cases 2, 4 and 5, Eqs. 6-7 and the budget stop are
:mod:`repro.market.termination` (with
:func:`~repro.market.objectives.break_even_gain` and the trail's
:func:`~repro.market.pricing.meets_floors`); Increase Price's step is
:func:`~repro.market.strategies.baselines.increase_price_step`.  The
kernel owns the batch machinery (tapes, trail storage, each cost-mix
entry's registered model called once per round while the entry has a
live session) and two pieces kept inline on the engine's hottest
paths: Def. 2.3's payment and Algorithm 1's candidate scan (the
``argmin`` shortcut below, falling back to
:func:`~repro.market.strategies.task_party._min_cap_scan`).

Randomness.  Each session owns one flat tape of doubles and a cursor.
A session's generator is built (from seed words derived for the whole
batch in one pass, :func:`~repro.utils.rng.stream_seed_words`) the
first time it reaches Case 6, so a session that ends before sampling
never builds one.  A tape that runs short keeps its unread doubles and
is topped up with one ``random`` call, in blocks that double up to
``_TAPE_ROUNDS`` rounds' worth.  Drawing past a session's last round
is unobservable: its generator lives only for one kernel call.  An
Increase-Price continuation reads three doubles (rate, base, cap
steps, each ``step * random()`` as the engine's ``uniform(0, step)``).
A strategic continuation reads between ``W`` and ``2W`` doubles
(``W = n_price_samples``), as
:func:`~repro.market.strategies.task_party._min_cap_scan` does: a
candidate's cap draw is followed by its rate draw only when the cap is
usable (it raises the cap and leaves a rate ceiling above ``p0``).

Usability is monotone in the drawn double: ``cl + span·d``, then
``(cap − b0)/target``, then ``min(u, ·)`` are all non-decreasing for
``span > 0`` and ``target > 0``.  So when the smallest cap among the
even doubles ``0, 2, …, 2W−2`` is usable, all of them are, the
engine's caps and rates alternate, ``2W`` doubles are used and a plain
``argmin`` is the engine's strict-``<`` pick.  A row whose smallest
even cap is unusable (its cap lies within ``1e-12`` of the standing
cap) is resolved by calling ``_min_cap_scan`` itself on its ``2W``
doubles.

Determinism contract: every draw comes from the session's own stream,
consumed in round order, so results are independent of how sessions
are grouped into batches (``tests/simulate/test_determinism.py``,
``tests/simulate/test_kernel_batches.py``), and running the same
sessions again gives the same records.

One call runs sessions of one population: they share its catalogue
(broadcast as a single ``(1, F)`` row, as the platform computes each
bundle's ΔG once in §3.4) and its protocol constants
``spec.n_price_samples`` and ``spec.max_rounds``.
"""

from __future__ import annotations

import numpy as np

from repro.market.costs import NoCost
from repro.market.objectives import break_even_gain
from repro.market.pricing import meets_floors, purchase_floor
from repro.market.strategies.baselines import increase_price_step
from repro.market.strategies.data_party import offer_rows
from repro.market.strategies.task_party import _min_cap_scan
from repro.market.termination import (
    budget_exhausted, data_accepts, data_accepts_with_cost, task_accepts,
    task_accepts_with_cost, task_fails_regression,
)
from repro.service import registry
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

#: Longest tape block, in rounds, and the tape's size cap.
_TAPE_ROUNDS = 8
_TAPE_BYTES = 64 << 20


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
    G = pop.gains  # (F,): one catalogue, broadcast over rows
    res_rate = pop.reserved_rate[indices]
    res_base = pop.reserved_base[indices]
    floor_rate, floor_base = purchase_floor(res_rate), purchase_floor(res_base)
    u = pop.utility_rate[indices]
    budget = pop.budget[indices]
    p0 = pop.initial_rate[indices]
    b0 = pop.initial_base[indices]
    target = pop.target[indices]
    eps_d = pop.eps_d[indices]
    eps_t = pop.eps_t[indices]
    eps_dc = pop.eps_dc[indices]
    eps_tc = pop.eps_tc[indices]
    W = int(pop.spec.n_price_samples)
    max_rounds = int(pop.spec.max_rounds)
    break_even = break_even_gain(p0, b0, u)  # anchored to the opening quote
    by_mix = np.array([task == "increase_price"
                       for task, _, _ in pop.spec.strategy_mix])
    inc = by_mix[pop.mix_idx[indices]]
    any_inc = bool(inc.any())

    # Each cost-mix entry's registered model (the engine's cost_task
    # and cost_data), evaluated once per round.
    models = [registry.build_cost(kind, a) or NoCost()
              for kind, a, _ in pop.spec.cost_mix]
    schedule = pop.cost_idx[indices]
    has_cost = np.array([not isinstance(m, NoCost) for m in models])[schedule]
    eq7 = has_cost & ~inc  # Increase Price has no Eq. 7 acceptance
    cost_now = np.array([m(1) for m in models])

    # Per-session tapes of the engine's stream, read at pos[s].
    seed_words = stream_seed_words(
        pop.seed, indices, prefix=("session",), suffix=("task",)
    )
    round_width = max(2 * W, 3)
    win = int(np.clip(_TAPE_BYTES // (max(n, 1) * round_width * 8), 1,
                      _TAPE_ROUNDS))
    L = win * round_width
    tape = np.zeros((n, L))  # zero pages stay untouched until drawn
    # Every width-long run of a tape, (n, L - width + 1, width), as views.
    window = np.lib.stride_tricks.sliding_window_view
    candidate_window = window(tape, 2 * W, axis=1)
    step_window = window(tape, 3, axis=1)
    gens: list = [None] * n
    pos = np.zeros(n, dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    block = np.where(inc, 3, 2 * W)

    def cursor(sess: np.ndarray, width: int) -> np.ndarray:
        """The tape cursor of each of ``sess``, once its tape holds
        ``width`` unread doubles; short tapes keep their unread doubles
        and are topped up with one ``random`` call per session.
        Advancing ``pos`` is the caller's."""
        short = sess[filled[sess] - pos[sess] < width]
        if short.size:
            unread = filled[short] - pos[short]
            top_up = np.minimum(block[short], L - unread)
            for s, p, r, k in zip(short.tolist(), pos[short].tolist(),
                                  unread.tolist(), top_up.tolist()):
                row = tape[s]
                if r:
                    row[:r] = row[p:p + r]
                gen = gens[s]
                if gen is None:
                    gen = gens[s] = generator_from_seed_words(seed_words[s])
                gen.random(out=row[r:r + k])
            filled[short] = unread + top_up
            pos[short] = 0
            block[short] = np.minimum(2 * block[short], L)
        return pos[sess]

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

    # Offer trail for the Case-4 regression test (grown on demand): each
    # round's rate and base kept as floors, as OfferTrail keeps them.
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
        sched_l = schedule[live]
        # Only entries with a live row: a schedule can overflow in
        # rounds its own sessions never reach.
        due = np.zeros(len(models), dtype=bool)
        due[sched_l] = True
        cost_next = np.array([m(T + 1) if d else 0.0
                              for m, d in zip(models, due.tolist())])
        cost_r, cost_r1 = cost_now[sched_l], cost_next[sched_l]
        cost_now = cost_next  # round T+1's cost is computed once

        # --- Step 2: the data party reacts (Cases 1-3) -----------------
        offer, tgt = offer_rows(G, rate_l[:, None], base_l[:, None],
                                tp[:, None], floor_rate[live], floor_base[live])
        dead = offer < 0
        if dead.any():  # Case 1: no affordable bundle -> fail
            finalise(live[dead], st=STATUS_FAILED, by=BY_DATA, T=T,
                     ct=cost_r[dead], cd=cost_r[dead],
                     q_rate=rate_l[dead], q_base=base_l[dead], q_cap=cap_l[dead])
            keep = ~dead
            live, rate_l, base_l, cap_l, tp = (
                live[keep], rate_l[keep], base_l[keep], cap_l[keep], tp[keep])
            offer, tgt = offer[keep], tgt[keep]
            cost_r, cost_r1 = cost_r[keep], cost_r1[keep]

        gain = G[offer]
        payment = np.minimum(np.maximum(base_l, base_l + rate_l * gain), cap_l)
        net = u[live] * gain - payment

        accept_d = data_accepts(tp, gain, eps_d[live])  # Case 2
        costly = has_cost[live]
        if costly.any():  # Eq. 6 look-ahead acceptance
            rows_l = np.arange(live.size)
            accept_d |= costly & data_accepts_with_cost(
                rate_l, base_l, tp, gain, res_rate[live][rows_l, tgt],
                res_base[live][rows_l, tgt], cost_r, cost_r1, eps_dc[live],
            )
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
            dom = meets_floors(rate_l[:, None], base_l[:, None],
                               tr_rate[live, :k], tr_base[live, :k])
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
        tr_rate[live, k] = purchase_floor(rate_l)
        tr_base[live, k] = purchase_floor(base_l)
        tr_gain[live, k] = gain

        fail_t = task_fails_regression(gain, break_even[live], best_dom)  # Case 4
        accept_t = task_accepts(tp, gain, eps_t[live])  # Case 5
        costly = eq7[live]
        if costly.any():  # Eq. 7 look-ahead acceptance
            accept_t |= costly & task_accepts_with_cost(
                rate_l, base_l, cap_l, tp, gain, u[live], cost_r, cost_r1,
                eps_tc[live],
            )
        accept_t &= ~fail_t  # failure checked first, as in the engine

        # Case 6, strategic rows: escalated Eq.5-consistent candidates,
        # min-cap pick.
        running = ~fail_t & ~accept_t
        if any_inc:
            escalate = running & inc[live]
            running &= ~escalate
        exhausted = running & budget_exhausted(cap_l, budget[live])
        sample = running & ~exhausted
        rows = np.flatnonzero(sample)
        if rows.size:
            sess = live[rows]
            at_pos = cursor(sess, 2 * W)
            cl = cap_l[rows]
            span = budget[sess] - cl
            u_s, b0_s, p0_s, tg_s = u[sess], b0[sess], p0[sess], target[sess]
            # Caps at the even doubles; the smallest usable means all are.
            caps = candidate_window[sess, at_pos, ::2]
            caps *= span[:, None]
            caps += cl[:, None]
            at = np.arange(rows.size)
            pick = caps.argmin(axis=1)
            new_cap = caps[at, pick]
            rate_high = np.minimum(u_s, (new_cap - b0_s) / tg_s)
            got = (new_cap > cl + 1e-12) & (rate_high > p0_s)
            rate_d = tape[sess, at_pos + 2 * pick + 1]
            new_rate = p0_s + (rate_high - p0_s) * rate_d
            used = np.full(rows.size, 2 * W)
            for j in np.flatnonzero(~got).tolist():  # the engine's own scan
                s, p = int(sess[j]), int(at_pos[j])
                (c, r), used[j] = _min_cap_scan(
                    tape[s, p:p + 2 * W].tolist(), W, float(cl[j]),
                    float(span[j]), float(p0_s[j]), float(b0_s[j]),
                    float(u_s[j]), float(tg_s[j]),
                )
                new_cap[j], new_rate[j], got[j] = c, r, c != float("inf")
            pos[sess] += used
            # No usable candidate left: accept the standing outcome
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
            d = step_window[sess, cursor(sess, 3)]  # rate, base, cap
            pos[sess] += 3
            new_rate, new_base, new_cap, stuck = increase_price_step(
                rate_l[rows], base_l[rows], cap_l[rows], d[:, 0], d[:, 1],
                d[:, 2], u[sess], budget[sess],
            )
            # A saturated price box has nothing left to concede: accept.
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
