"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget, printing one pass line each (visible with ``pytest -v -rA``
or ``-s``).

Monte-Carlo criteria share one exact phase distribution per instance and draw
independent seeded Born samples per trial, which reproduces per-call runs
exactly (the phase evolution is deterministic; only the measurement is
random).  The certainty criterion additionally runs full per-call estimations.
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

from helpers import parity_set_distribution, random_bitstring_distribution, rotation_system

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
            state = sv.new_basis_state(orc.encoder_layout(oracle))
            sv.apply(orc.probability_encoder(oracle), state)
            readout = state.amplitudes[: oracle.sample_dim][:n]
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
            sv.apply(unitary, state)
            mass = sv.projector_norm_sq(state, proj)
            assert abs(mass - ref.lp_distance(p, q, 2) ** 2 / 4) < ATOL


def test_criterion_3_subset_amplitude_identity():
    """Projected amplitudes match brute-force Fourier coefficients for all S."""
    with Budget(3, 120):
        rng = np.random.default_rng(1003)
        for n in (2, 3, 4, 5):
            for k in range(1, min(3, n) + 1):
                dist = random_bitstring_distribution(n, rng)
                style = "haar" if (n + k) % 2 else "basis"
                oracle = orc.make_purified_oracle(dist, style, seed=n * 10 + k)
                layout, unitary, _ = orc.kwise_instance(oracle, k)
                state = sv.new_basis_state(layout)
                sv.apply(unitary, state)
                stride = layout.total_dim // 2 ** n
                scale = math.sqrt(ref.binom_sum(n, k))
                for mask in range(2 ** n):
                    amp = state.amplitudes[mask * stride]
                    size = bin(mask).count("1")
                    want = (ref.fourier_coefficient(dist, mask) / scale
                            if 1 <= size <= k else 0.0)
                    assert abs(amp - want) < ATOL, (n, k, mask)


def test_criterion_4_certainty_and_coverage():
    """Estimate is exactly 0 at zero amplitude; error bound holds >= 75%."""
    with Budget(4, 120):
        unitary, layout, proj = rotation_system(0.0)
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            result = ae.amplitude_estimation(unitary, layout, proj, 64, rng)
            assert result.estimate == 0.0

        u = uniform(4)
        op, oq = pair_oracles(u, u)
        c_layout, c_unitary, c_proj = orc.closeness_instance(op, oq)
        for _ in range(5):
            assert ae.amplitude_estimation(c_unitary, c_layout, c_proj, 64,
                                           rng).estimate == 0.0

        for m in (64, 128):
            for p in (0.05, 0.1, 0.25, 0.5, 0.9):
                unitary, layout, proj = rotation_system(p)
                dist = ae.phase_distribution(unitary, layout, proj, m)
                bound = (2 * math.pi * math.sqrt(p * (1 - p)) / dist.points
                         + math.pi ** 2 / dist.points ** 2)
                srng = np.random.default_rng([1004, m, int(p * 1000)])
                hits = sum(abs(dist.sample(srng).estimate - p) <= bound
                           for _ in range(500))
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

        spike = ref.gen_fourier_spike(n, ref.mask_from_coords(n, (1, 2)), 0.6)
        assert abs(ref.tv_distance(spike, uniform(2 ** n, BITSTRING)) - 0.3) < 1e-12
        oracle = orc.make_purified_oracle(spike, label="p")
        freq = verdict_freq(testers.kwise_plan(oracle, k, eps), 300, seed=62)
        assert freq.get("NO", 0) >= 0.66


def test_criterion_7_query_scaling_laws():
    """Ledger doubles when eps halves; budget grows as sqrt(n) and sqrt(M)."""
    with Budget(7, 180):
        rng = np.random.default_rng(1007)
        p, q = ref.gen_l2_pair(8, 0.4)
        op, oq = pair_oracles(p, q)
        led_a, led_b = sv.QueryLedger(), sv.QueryLedger()
        testers.l2_closeness(op, oq, 0.4, rng, ledger=led_a)
        testers.l2_closeness(op, oq, 0.2, rng, ledger=led_b)
        for label in ("p", "q"):
            ratio = led_b.total(label) / led_a.total(label)
            assert abs(ratio - 2.0) <= 0.2

        budgets = {}
        for n in (4, 8, 16):
            pn, qn = ref.gen_l1_pair(n, 0.4)
            opn, oqn = pair_oracles(pn, qn)
            budgets[n] = testers.l1_closeness(opn, oqn, 0.4, rng).t
        for n in (4, 8):
            assert 1.3 <= budgets[2 * n] / budgets[n] <= 1.55

        k, eps = 2, 0.9
        for n in (3, 4, 5):
            spike = ref.gen_fourier_spike(n, ref.mask_from_coords(n, (1, 2)), 0.6)
            oracle = orc.make_purified_oracle(spike, label="p")
            verdict = testers.kwise_uniformity_test(oracle, k, eps, rng)
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
            total = sum(ref.fourier_coefficient(dist, m) ** 2 for m in range(16))
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
                assert ref.is_kwise_uniform(dist, k) == \
                    (ref.fourier_weight(dist, k) < 1e-18)

        for _ in range(100):
            n = int(rng.integers(2, 12))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            assert (ref.lp_distance(p, q, 2)
                    >= ref.lp_distance(p, q, 1) / math.sqrt(n) - 1e-12)

        for eps in (0.1, 0.3):
            p, q = ref.gen_l2_pair(4, eps)
            closed = math.sqrt(1 - math.sqrt(1 + eps) / 2 - math.sqrt(1 - eps) / 2)
            assert abs(ref.hellinger_distance(p, q) - closed) < 1e-12
            assert ref.hellinger_distance(p, q) <= eps
