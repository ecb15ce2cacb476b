"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget, printing one pass line each (visible with ``pytest -v -rA``
or ``-s``).

Monte-Carlo criteria share one exact phase distribution per instance and draw
independent seeded Born samples per trial, which reproduces per-call runs
exactly (the phase evolution is deterministic; only the measurement is
random).  Criteria 5 and 6 also check the exact operating characteristic:
the phase mass on each side of a plan's threshold, with no sampling.
"""
import math
import time

import numpy as np
import pytest

from qdtest import amplitude as ae
from qdtest import experiments as exp
from qdtest import oracles as orc
from qdtest import reference as ref
from qdtest import statevec as sv
from qdtest import testers
from qdtest.distributions import (BITSTRING, Distribution, point_mass,
                                  random_distribution, uniform)

from helpers import (estimates, fourier_coefficient, hellinger_distance, marginals_uniform,
                     parity_set_distribution, random_bitstring_distribution, rotation_system,
                     run_plan, tv_distance)

ATOL = 1e-10


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} took {elapsed:.1f}s "
                f"(budget {self.seconds}s)")
            print(f"[acceptance] criterion {self.criterion}: PASS ({elapsed:.1f}s)")


def pair_oracles(p, q, style="basis", seeds=(None, None)):
    return (orc.make_purified_oracle(p, style, seed=seeds[0], label="p"),
            orc.make_purified_oracle(q, style, seed=seeds[1], label="q"))


def exact_acceptance(plan) -> float:
    """Exact probability of the plan's labels[0] verdict: the mass of the
    phases whose estimate sin^2(pi y / M) falls below the threshold."""
    dist = ae.phase_distribution(plan.unitary, plan.layout, plan.projector, plan.t)
    below = [ae.estimate_from_phase(y, dist.points) < plan.threshold
             for y in range(dist.points)]
    return float(dist.probs[below].sum())


def verdict_freq(plan, trials, seed):
    verdicts = exp.run_trials(plan, trials, seed)
    counts = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    return {k: c / trials for k, c in counts.items()}


def test_criterion_1_probability_readout_identity():
    """Encoder amplitudes equal the probabilities, both garbage styles."""
    with Budget(1, 30):
        rng = np.random.default_rng(1001)
        sizes = [2, 4, 8, 16]
        for case in range(50):
            n = sizes[case % 4]
            dist = random_distribution(n, rng)
            style = "basis" if case % 2 == 0 else "haar"
            oracle = orc.make_purified_oracle(dist, style, seed=case)
            state = sv.new_basis_state(orc.encoder_layout(n))
            orc.probability_encoder(oracle).apply_to(state)
            readout = state.amplitudes[:n]
            assert np.abs(readout - dist.weights).max() < ATOL


def test_criterion_2_closeness_projected_mass():
    """||Pi U|0>||^2 = ||p - q||_2^2 / 4 on random and generated pairs."""
    with Budget(2, 30):
        rng = np.random.default_rng(1002)
        cases = []
        for case in range(50):
            n = int(rng.integers(2, 17))
            cases.append((random_distribution(n, rng), random_distribution(n, rng)))
        for eps in (0.1, 0.3, 0.7):
            cases.append(ref.gen_l2_pair(8, eps))
            cases.append(ref.gen_l1_pair(8, eps))
        for i, (p, q) in enumerate(cases):
            style = "haar" if i % 3 == 0 else "basis"
            op, oq = pair_oracles(p, q, style, seeds=(2 * i, 2 * i + 1))
            layout, unitary, proj = orc.closeness_instance(op, oq)
            state = sv.new_basis_state(layout)
            unitary.apply_to(state)
            mass = sv.projector_norm_sq(state, proj)
            assert abs(mass - ref.lp_distance(p, q, 2) ** 2 / 4) < ATOL


def test_criterion_3_subset_amplitude_identity():
    """Projected amplitudes match brute-force Fourier coefficients for every
    subset S of size at most k, and the empty set carries none."""
    with Budget(3, 120):
        rng = np.random.default_rng(1003)
        for n in (2, 3, 4, 5):
            for k in range(1, min(3, n) + 1):
                dist = random_bitstring_distribution(n, rng)
                style = "haar" if (n + k) % 2 else "basis"
                oracle = orc.make_purified_oracle(dist, style, seed=n * 10 + k)
                layout, unitary, _ = orc.kwise_instance(oracle, k)
                state = sv.new_basis_state(layout)
                unitary.apply_to(state)
                masks = ref.subset_masks(n, k)
                assert layout.dim_of("S") == len(masks) == 1 + ref.binom_sum(n, k)
                stride = layout.total_dim // len(masks)
                scale = math.sqrt(ref.binom_sum(n, k))
                for s, mask in enumerate(masks.tolist()):
                    amp = state.amplitudes[s * stride]
                    assert bin(mask).count("1") <= k
                    want = fourier_coefficient(dist, mask) / scale if mask else 0.0
                    assert abs(amp - want) < ATOL, (n, k, mask)


def test_criterion_4_certainty_and_coverage():
    """Estimate is exactly 0 at zero amplitude; error bound holds >= 75%."""
    with Budget(4, 120):
        unitary, layout, proj = rotation_system(0.0)
        rng = np.random.default_rng(1004)
        dist = ae.phase_distribution(unitary, layout, proj, 64)
        assert all(e == 0.0 for e in estimates(dist, rng.random(1000)))

        u = uniform(4)
        op, oq = pair_oracles(u, u)
        c_layout, c_unitary, c_proj = orc.closeness_instance(op, oq)
        dist = ae.phase_distribution(c_unitary, c_layout, c_proj, 64)
        assert estimates(dist, rng.random(5)) == [0.0] * 5

        for m in (64, 128):
            for p in (0.05, 0.1, 0.25, 0.5, 0.9):
                unitary, layout, proj = rotation_system(p)
                dist = ae.phase_distribution(unitary, layout, proj, m)
                bound = (2 * math.pi * math.sqrt(p * (1 - p)) / dist.points
                         + math.pi ** 2 / dist.points ** 2)
                srng = np.random.default_rng([1004, m, int(p * 1000)])
                hits = sum(abs(e - p) <= bound for e in estimates(dist, srng.random(500)))
                assert hits / 500 >= 0.75, (p, m, hits / 500)


def test_criterion_5_closeness_tester_frequencies():
    """Certainty on identical inputs; >= 0.66 success on both promise sides."""
    with Budget(5, 300):
        eps, nu, n = 0.2, 0.5, 8
        u = uniform(n)
        op, oq = pair_oracles(u, u)
        freq = verdict_freq(testers.closeness_plan(op, oq, eps, nu), 300, seed=50)
        assert freq.get("CLOSE", 0) == 1.0

        p, q = ref.gen_l2_pair(n, eps * math.sqrt(2))  # distance exactly eps
        op, oq = pair_oracles(p, q)
        freq = verdict_freq(testers.closeness_plan(op, oq, eps, nu), 300, seed=51)
        assert freq.get("FAR", 0) >= 0.66

        p, q = ref.gen_l2_pair(n, (1 - nu) * eps * math.sqrt(2))
        op, oq = pair_oracles(p, q)
        freq = verdict_freq(testers.closeness_plan(op, oq, eps, nu), 300, seed=52)
        assert freq.get("CLOSE", 0) >= 0.66

        # exact: identical pairs accepted with certainty (with Haar garbage the
        # rejection mass is about 1e-28, so the acceptance sum is what is
        # exact), and pairs at distance exactly eps rejected w.p. >= 8/pi^2
        for style, seeds in (("basis", (None, None)), ("haar", (53, 54))):
            for size in (8, 16, 64):
                u = uniform(size)
                plan = testers.closeness_plan(*pair_oracles(u, u, style, seeds), eps, nu)
                assert exact_acceptance(plan) == 1.0, (style, size)
            for far_eps in (0.4, 0.2, 0.1):
                p, q = ref.gen_l2_pair(n, far_eps * math.sqrt(2))
                plan = testers.closeness_plan(*pair_oracles(p, q, style, seeds),
                                              far_eps, nu)
                assert 1.0 - exact_acceptance(plan) >= 8 / math.pi ** 2, (style, far_eps)


def test_criterion_6_kwise_tester_frequencies():
    """Certainty on k-wise uniform inputs; >= 0.66 rejection of the far spike."""
    with Budget(6, 300):
        n, k, eps = 4, 2, 0.3
        oracle = orc.make_purified_oracle(uniform(2 ** n, BITSTRING), label="p")
        freq = verdict_freq(testers.kwise_plan(oracle, k, eps), 100, seed=60)
        assert freq.get("YES", 0) == 1.0

        parity = parity_set_distribution(n)
        assert ref.is_kwise_uniform(parity, k) and not ref.is_kwise_uniform(parity, n)
        oracle = orc.make_purified_oracle(parity, label="p")
        freq = verdict_freq(testers.kwise_plan(oracle, k, eps), 100, seed=61)
        assert freq.get("YES", 0) == 1.0

        # exact: uniform and parity-set inputs accepted with certainty
        for style, seed in (("basis", None), ("haar", 63)):
            for dist in (uniform(2 ** n, BITSTRING), parity):
                oracle = orc.make_purified_oracle(dist, style, seed=seed, label="p")
                assert exact_acceptance(testers.kwise_plan(oracle, k, eps)) == 1.0, style

        spike = ref.gen_fourier_spike(n, ref.mask_from_coords(n, (1, 2)), 0.6)
        assert abs(tv_distance(spike, uniform(2 ** n, BITSTRING)) - 0.3) < 1e-12
        oracle = orc.make_purified_oracle(spike, label="p")
        freq = verdict_freq(testers.kwise_plan(oracle, k, eps), 300, seed=62)
        assert freq.get("NO", 0) >= 0.66


def test_criterion_7_query_scaling_laws():
    """Ledger doubles when eps halves; budget grows as sqrt(n) and sqrt(M)."""
    with Budget(7, 180):
        rng = np.random.default_rng(1007)
        p, q = ref.gen_l2_pair(8, 0.4)
        op, oq = pair_oracles(p, q)
        cost_a = run_plan(testers.closeness_plan(op, oq, 0.4, 0.5), rng).queries
        cost_b = run_plan(testers.closeness_plan(op, oq, 0.2, 0.5), rng).queries
        for label in ("p", "q"):
            ratio = sum(cost_b[label].values()) / sum(cost_a[label].values())
            assert abs(ratio - 2.0) <= 0.2

        budgets = {}
        for n in (4, 8, 16):
            pn, qn = ref.gen_l1_pair(n, 0.4)
            opn, oqn = pair_oracles(pn, qn)
            budgets[n] = run_plan(testers.l1_plan(opn, oqn, 0.4), rng).t
        for n in (4, 8):
            assert 1.3 <= budgets[2 * n] / budgets[n] <= 1.55

        k, eps = 2, 0.9
        for n in (3, 4, 5):
            spike = ref.gen_fourier_spike(n, ref.mask_from_coords(n, (1, 2)), 0.6)
            oracle = orc.make_purified_oracle(spike, label="p")
            verdict = run_plan(testers.kwise_plan(oracle, k, eps), rng)
            formula = math.ceil(10 * math.pi * math.exp(k)
                                * math.sqrt(ref.binom_sum(n, k)) / eps)
            assert abs(verdict.t - formula) / formula <= 0.15


def test_criterion_8_distance_estimator():
    """|estimate - true distance| <= eps at frequency >= 0.66."""
    with Budget(8, 180):
        eps, n = 0.05, 8
        cases = [(uniform(n), uniform(n), 0.0),
                 ref.gen_l2_pair(n, 0.28 * math.sqrt(2)) + (0.28,),
                 (point_mass(n, 0), point_mass(n, 1), math.sqrt(2))]
        t = math.ceil(8 * math.pi / eps)
        for i, (p, q, true) in enumerate(cases):
            op, oq = pair_oracles(p, q)
            plan = testers.estimator_plan(op, oq, eps)
            assert plan.t == t
            verdicts = exp.run_trials(plan, 300, seed=80 + i)
            assert abs(2 * math.sqrt(ref.lp_distance(p, q, 2) ** 2 / 4) - true) < 1e-12
            hits = sum(abs(2 * math.sqrt(v.statistic) - true) <= eps for v in verdicts)
            assert hits / 300 >= 0.66, true


def test_criterion_9_reference_identities():
    """Parseval, marginal/Fourier equivalence, norm chain, Hellinger forms."""
    with Budget(9, 30):
        rng = np.random.default_rng(1009)
        for _ in range(10):
            dist = random_bitstring_distribution(4, rng)
            density = dist.weights * dist.size
            total = np.sum(ref.fourier_spectrum(dist) ** 2)
            assert abs(total - np.mean(density ** 2)) < 1e-9

        cases = [uniform(16, BITSTRING), parity_set_distribution(4),
                 ref.gen_fourier_spike(4, 0b0110, 0.4),
                 Distribution(np.eye(16)[7], BITSTRING),
                 parity_set_distribution(3), uniform(8, BITSTRING),
                 parity_set_distribution(2), uniform(4, BITSTRING)]
        cases += [random_bitstring_distribution(nn, rng)
                  for nn in (2, 3, 4) for _ in range(10)]
        for dist in cases:
            for k in range(1, dist.n_bits + 1):
                assert marginals_uniform(dist, k) == (ref.fourier_weight(dist, k) < 1e-18)

        for _ in range(100):
            n = int(rng.integers(2, 12))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            assert (ref.lp_distance(p, q, 2)
                    >= ref.lp_distance(p, q, 1) / math.sqrt(n) - 1e-12)

        for eps in (0.1, 0.3):
            p, q = ref.gen_l2_pair(4, eps)
            closed = math.sqrt(1 - math.sqrt(1 + eps) / 2 - math.sqrt(1 - eps) / 2)
            assert abs(hellinger_distance(p, q) - closed) < 1e-12
            assert hellinger_distance(p, q) <= eps
