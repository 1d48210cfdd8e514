"""Cost-model fidelity: the analytic pre-pruner only earns its place if
its ranking of the knob grid agrees with what the simulator actually
measures. Cross-validate ``predict_time`` against simulated runtimes
over the tuner's own candidate grid and assert rank correlation.
"""

import dataclasses

from repro.tune import SearchSpace, Scenario, evaluate, predict_time, prune
from repro.units import KiB

SCN = Scenario(collective="allgather", n_hosts=8, topo="star",
               msg_bytes=64 * KiB, seed=0)


def _ranks(values):
    """Average ranks (1-based) with tie handling, enough for Spearman."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys):
    rx, ry = _ranks(xs), _ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


def test_spearman_helper_on_known_inputs():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0


def grid(scenario, max_points=18):
    """A deterministic, diverse slice of the candidate grid: the pruner's
    top picks plus its rejects, so the correlation is tested across the
    full predicted-time range rather than only among near-winners."""
    cands = SearchSpace.default(scenario).candidates()
    ranked = prune(scenario, cands, keep=len(cands))
    if len(ranked) <= max_points:
        return ranked
    stride = len(ranked) / max_points
    return [ranked[int(i * stride)] for i in range(max_points)]


#: the UC scenario: its chunk domain still sweeps (§V-B), so its grid has
#: the most distinct predicted-time levels
UC = dataclasses.replace(SCN, transport="uc")


def _assert_rank_correlates(scn, min_points):
    points = grid(scn)
    assert len(points) >= min_points, "grid too small to establish a ranking"
    predicted = [est.total for _, est in points]
    measured = []
    for knobs, _ in points:
        m = evaluate(scn, knobs, trace=False)
        assert m.verified
        measured.append(m.duration)
    rho = spearman(predicted, measured)
    assert rho >= 0.5, (
        f"cost model disagrees with simulation: Spearman rho={rho:.3f}\n"
        f"predicted={predicted}\nmeasured={measured}")


def test_cost_model_rank_correlates_with_simulation():
    _assert_rank_correlates(UC, min_points=8)


def test_cost_model_rank_correlates_on_the_ud_grid():
    # A UD chunk is the MTU, so the UD grid has only 6 predicted-time
    # levels (chains, subgroups, batching, staging).
    _assert_rank_correlates(SCN, min_points=6)


def _assert_optimum_survives_pruning(scn):
    points = grid(scn)
    measured = [(evaluate(scn, knobs, trace=False).duration, knobs)
                for knobs, _ in points]
    best_duration, best_knobs = min(measured, key=lambda t: t[0])
    kept = prune(scn, [k for k, _ in points], keep=6)
    kept_durations = [evaluate(scn, knobs, trace=False).duration
                      for knobs, _ in kept]
    # The kept set need not contain the exact argmin knobs, but its best
    # measured time must match the grid optimum (within one chunk's slack).
    assert min(kept_durations) <= best_duration * 1.05, (
        f"pruner dropped the optimum: grid best {best_duration * 1e6:.1f} µs "
        f"({best_knobs}), kept best {min(kept_durations) * 1e6:.1f} µs")


def test_true_optimum_survives_pruning():
    """The pruner's keep-set must contain the simulated optimum of the
    measured grid — otherwise pre-pruning silently caps achievable
    quality and the search budget is wasted on also-rans."""
    _assert_optimum_survives_pruning(SCN)
    _assert_optimum_survives_pruning(UC)


def test_model_orders_the_chain_knob_correctly():
    """n_chains is the paper's headline allgather knob (Fig 11): more
    chains -> more concurrent inter-subtree traffic. The model must get
    this single-knob direction right on its own."""
    base = SearchSpace.default(SCN).baseline_knobs()
    one = predict_time(SCN, {**base, "n_chains": 1})
    four = predict_time(SCN, {**base, "n_chains": 4})
    assert four.total < one.total
    m1 = evaluate(SCN, {**base, "n_chains": 1}, trace=False)
    m4 = evaluate(SCN, {**base, "n_chains": 4}, trace=False)
    assert m4.duration < m1.duration


def test_model_tracks_transport_cost_structure():
    """UC amortizes per-CQE software cost over multi-MTU chunks (Fig 15):
    the model's software term must fall as UC chunk size grows."""
    base = SearchSpace.default(UC).baseline_knobs()
    small = predict_time(UC, {**base, "chunk_size": 4096})
    large = predict_time(UC, {**base, "chunk_size": 16 * KiB})
    assert large.software < small.software
