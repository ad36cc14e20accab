"""Vectorised round kernel for perfect-information sessions.

This is the batch-scheduling fast path of the simulator: it advances a
whole batch of sessions one round at a time with numpy array
operations, instead of paying the per-round Python costs of
:class:`~repro.market.engine.BargainingEngine`.  Every session plays
the strategic data party (Eq. 4 offers, Cases 1-3, the Eq. 6 cost-aware
acceptance) and the shared Case-4/5 task-party checks; the task party's
escalation rule is per session (``StrategicBatch.increase_price``):

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
``tests/simulate/test_determinism.py``).  A batch carries each stream
as its four PCG64 seed words (:func:`~repro.utils.rng.stream_seed_words`,
computed for the whole batch in one pass), and every kernel call builds
fresh generators from them, so a batch can be run again, or
concatenated with itself, and gives the same records each time.

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
  the masked minimum, so only rows whose pick is invalid (or a padded
  sample column) fall back to the masked ``where``/``argmin``.

Batch assembly is decoupled from execution so callers other than
:class:`~repro.simulate.pool.SessionPool` can drive the kernel:

* :func:`assemble_strategic_batch` lifts sessions out of a
  :class:`~repro.simulate.population.Population` into a
  :class:`StrategicBatch` of parallel arrays;
* :func:`concat_strategic_batches` merges batches from *different*
  populations (different catalogue widths, round caps, or sampling
  depths) into one heterogeneous batch — catalogues are padded with
  sentinel columns that can never be afforded, so merged execution is
  bit-identical to running each batch alone;
* :func:`simulate_assembled_batch` runs any assembled batch to
  termination.

:func:`simulate_strategic_batch` (assemble + simulate over one
population) remains the convenience wrapper the pool uses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    "StrategicBatch",
    "assemble_strategic_batch",
    "concat_strategic_batches",
    "simulate_assembled_batch",
    "simulate_strategic_batch",
]

STATUS_ACCEPTED = 1
STATUS_FAILED = 2
STATUS_MAX_ROUNDS = 3

BY_DATA = 1
BY_TASK = 2
BY_ENGINE = 3

_COST_NONE, _COST_CONSTANT, _COST_LINEAR, _COST_EXPONENTIAL = 0, 1, 2, 3

#: Catalogue pad value for heterogeneous batches: a padded column's
#: reserved prices are +inf (never affordable, Case-1/Eq.4 masks skip
#: it) and its gain is +inf (never the |ΔG − tp| argmin target).
_PAD = np.inf

#: Longest candidate-tape block, in rounds, and the tape's size cap.
_TAPE_ROUNDS = 8
_TAPE_BYTES = 64 << 20


@dataclass
class StrategicBatch:
    """One externally-assembled batch of sessions against the strategic
    data party.

    Parallel arrays over ``n`` sessions; the catalogue axis ``F`` may
    mix real columns with ``+inf`` padding (heterogeneous batches).
    ``increase_price`` selects each session's escalation rule (Increase
    Price where set, Algorithm 1 elsewhere).  ``seed_words`` holds each
    session's RNG stream as PCG64 seed words — the ``"kernel"`` stream
    for strategic rows, the engine's ``"task"`` stream for Increase-Price
    rows; the kernel builds generators from them afresh on every run.
    """

    gains: np.ndarray          # (n, F) shared/padded catalogues
    reserved_rate: np.ndarray  # (n, F)
    reserved_base: np.ndarray  # (n, F)
    utility_rate: np.ndarray   # (n,)
    budget: np.ndarray
    initial_rate: np.ndarray
    initial_base: np.ndarray
    target: np.ndarray
    eps_d: np.ndarray
    eps_t: np.ndarray
    eps_dc: np.ndarray
    eps_tc: np.ndarray
    cost_kind: np.ndarray      # (n,) int8
    cost_a: np.ndarray
    n_price_samples: np.ndarray  # (n,) int
    max_rounds: np.ndarray       # (n,) int
    increase_price: np.ndarray   # (n,) bool
    seed_words: np.ndarray       # (n, 4) uint64

    def __post_init__(self) -> None:
        n = self.gains.shape[0]
        for field in fields(self):  # every field is per-session
            got = len(getattr(self, field.name))
            if got != n:
                raise ValueError(
                    f"batch fields disagree on the session count: gains "
                    f"has {n} rows, {field.name} has {got}"
                )

    def __len__(self) -> int:
        return self.gains.shape[0]


def assemble_strategic_batch(population, indices: np.ndarray) -> StrategicBatch:
    """Lift ``population``'s sessions at ``indices`` into a batch.

    Every array is copied out at the session granularity, so the batch
    is self-contained: it can be merged with batches from other
    populations (:func:`concat_strategic_batches`) or executed on its
    own (:func:`simulate_assembled_batch`).
    """
    indices = np.asarray(indices, dtype=int)
    n = len(indices)
    spec = population.spec
    g = np.ascontiguousarray(
        np.broadcast_to(population.gains[None, :], (n, len(population.gains)))
    )
    by_mix = np.array([task == "increase_price" for task, _, _ in spec.strategy_mix])
    increase_price = by_mix[population.mix_idx[indices]]
    seed_words = stream_seed_words(
        population.seed, indices, prefix=("session",), suffix=("kernel",)
    )
    if increase_price.any():  # these rows read the engine's own stream
        seed_words[increase_price] = stream_seed_words(
            population.seed, indices[increase_price], prefix=("session",),
            suffix=("task",),
        )
    return StrategicBatch(
        gains=g,
        reserved_rate=population.reserved_rate[indices],
        reserved_base=population.reserved_base[indices],
        utility_rate=population.utility_rate[indices],
        budget=population.budget[indices],
        initial_rate=population.initial_rate[indices],
        initial_base=population.initial_base[indices],
        target=population.target[indices],
        eps_d=population.eps_d[indices],
        eps_t=population.eps_t[indices],
        eps_dc=population.eps_dc[indices],
        eps_tc=population.eps_tc[indices],
        cost_kind=population.cost_kind[indices],
        cost_a=population.cost_a[indices],
        n_price_samples=np.full(n, int(spec.n_price_samples), dtype=int),
        max_rounds=np.full(n, int(spec.max_rounds), dtype=int),
        increase_price=increase_price,
        seed_words=seed_words,
    )


def concat_strategic_batches(batches) -> StrategicBatch:
    """Merge assembled batches into one heterogeneous batch.

    Catalogues of different widths are right-padded with ``+inf``
    sentinel columns (unaffordable, never an Eq.4/Eq.6 pick), so each
    session's trajectory is bit-identical to running its home batch
    alone — the determinism contract extends across populations.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("concat_strategic_batches needs at least one batch")
    if len(batches) == 1:
        return batches[0]
    width = max(b.gains.shape[1] for b in batches)

    def pad(array: np.ndarray) -> np.ndarray:
        n, f = array.shape
        if f == width:
            return array
        out = np.full((n, width), _PAD)
        out[:, :f] = array
        return out

    return StrategicBatch(
        gains=np.concatenate([pad(b.gains) for b in batches]),
        reserved_rate=np.concatenate([pad(b.reserved_rate) for b in batches]),
        reserved_base=np.concatenate([pad(b.reserved_base) for b in batches]),
        utility_rate=np.concatenate([b.utility_rate for b in batches]),
        budget=np.concatenate([b.budget for b in batches]),
        initial_rate=np.concatenate([b.initial_rate for b in batches]),
        initial_base=np.concatenate([b.initial_base for b in batches]),
        target=np.concatenate([b.target for b in batches]),
        eps_d=np.concatenate([b.eps_d for b in batches]),
        eps_t=np.concatenate([b.eps_t for b in batches]),
        eps_dc=np.concatenate([b.eps_dc for b in batches]),
        eps_tc=np.concatenate([b.eps_tc for b in batches]),
        cost_kind=np.concatenate([b.cost_kind for b in batches]),
        cost_a=np.concatenate([b.cost_a for b in batches]),
        n_price_samples=np.concatenate([b.n_price_samples for b in batches]),
        max_rounds=np.concatenate([b.max_rounds for b in batches]),
        increase_price=np.concatenate([b.increase_price for b in batches]),
        seed_words=np.concatenate([b.seed_words for b in batches]),
    )


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


def _masked_min_cap(caps, cl, ns_rows, u, b0, p0, target):
    """Masked min-cap pick over whole candidate rows.

    Returns ``(pick, got, cap, rate_high)``: the first index of the
    smallest admissible cap, whether any candidate was admissible, and
    that candidate's cap and rate ceiling.  A candidate is admissible
    when it raises the cap, lies within the session's
    ``n_price_samples``, and leaves a rate above the opening rate.
    """
    valid = caps > cl[:, None] + 1e-12
    # Padded sample columns (heterogeneous n_price_samples) draw 0.0,
    # land exactly on cl, and fail the > check; the explicit mask keeps
    # that invariant independent of fp.
    valid &= np.arange(caps.shape[1])[None, :] < ns_rows[:, None]
    rate_high = np.minimum(u[:, None], (caps - b0[:, None]) / target[:, None])
    valid &= rate_high > p0[:, None]
    pick = np.where(valid, caps, np.inf).argmin(axis=1)
    at = np.arange(len(pick))
    return pick, valid[at, pick], caps[at, pick], rate_high[at, pick]


def simulate_strategic_batch(population, indices: np.ndarray) -> dict[str, np.ndarray]:
    """Run the sessions in ``indices`` (all kernel-eligible, see
    :meth:`~repro.simulate.population.Population.kernel_eligible`) to
    termination and return their terminal records as arrays.

    Convenience wrapper: :func:`assemble_strategic_batch` +
    :func:`simulate_assembled_batch`.
    """
    return simulate_assembled_batch(
        assemble_strategic_batch(population, np.asarray(indices, dtype=int))
    )


def simulate_assembled_batch(batch: StrategicBatch) -> dict[str, np.ndarray]:
    """Run an assembled (possibly heterogeneous) batch to termination.

    Returned keys: ``status``, ``terminated_by``, ``n_rounds``,
    ``delta_g``, ``payment``, ``net_profit``, ``cost_task``,
    ``cost_data``, ``final_rate``, ``final_base``, ``final_cap`` — the
    same quantities a :class:`~repro.market.engine.BargainOutcome`
    carries, for the batch, in batch order.
    """
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
    inc = batch.increase_price
    any_inc = bool(inc.any())
    eq7 = has_cost & ~inc  # Increase Price has no Eq. 7 acceptance
    scalar_pow = inc & (cost_kind == _COST_EXPONENTIAL)
    if not scalar_pow.any():
        scalar_pow = None

    # Case-6 candidate tape: tape[s, r] holds the (2, W) draws of one
    # round for session s, filled in blocks and read at pos[s].
    W = int(ns.max())
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
                    gen = gens[s] = generator_from_seed_words(batch.seed_words[s])
                k_s = int(ns[s])
                if inc_tape is not None and inc[s]:
                    gen.random(out=inc_tape[s, :k])
                elif k_s == W:
                    gen.random(out=tape[s, :k])
                else:  # columns past n_price_samples stay 0.0
                    tape[s, :k, :, :k_s] = gen.random((k, 2, k_s))
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
            ns_rows = ns[sess]
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
            got = (new_cap > cl + 1e-12) & (pick < ns_rows) & (rate_high > p0_s)
            if not got.all():
                bad = np.flatnonzero(~got)
                pick[bad], got[bad], new_cap[bad], rate_high[bad] = _masked_min_cap(
                    caps[bad], cl[bad], ns_rows[bad], u_s[bad], b0_s[bad],
                    p0_s[bad], tg_s[bad],
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
