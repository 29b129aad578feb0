"""Acceptance gate: one test per release criterion.

Each test is independent, pins its tolerance next to the assertion, and
prints as a single pass/fail line under ``pytest -v``.  Together they
cover the exact moment formula against Monte Carlo at scale, the
hand-checkable oracles, the structural identities (Schur quotient, the
multivariate gamma recursion), the distributional lemmas behind the
triangular sampler, cross-sampler agreement, the disjoint-minor oracle,
the product-inequality tooling, estimator calibration, and bytewise CLI
reproducibility.
"""
import json
import math
import time

import numpy as np
from scipy.linalg import block_diag
from scipy.special import gammaln

from wishminors import (
    BlockPartition,
    MomentQuery,
    SearchConfig,
    SpdMatrix,
    Verdict,
    WishartGpiInstance,
    WishartParams,
    compare,
    disjoint_moment_block_diag_log,
    embedded_moment_log,
    estimate_disjoint,
    estimate_embedded,
    gpi_ratio,
    log_multigamma,
    sample_bartlett,
    sample_gaussian_sum,
    schur_complement,
    search,
)
from wishminors.cli import main as cli_main
from wishminors.cli import write_matrix_csv
from conftest import random_spd

# --- pinned budgets and tolerances ------------------------------------
N_FULL = 1_000_000          # draws for the at-scale oracle checks (c1, c5-c7)
N_BLOCK = 200_000           # draws per block-diagonal / ratio-curve config (c7, c8)
N_TRIAL = 100_000           # draws per search trial (c8)
N_COVERAGE = 32_000         # draws per calibration replicate (c9)
Z_ORACLE = 4.0              # exact-vs-estimate bands (c1, c7, c8)
Z_DISTRIBUTIONAL = 5.0      # sampling-distribution bands (c5, c6)
LOG_REL_TOL = 1e-10         # hand values, relative in log space (c2)
QUOTIENT_RTOL = 1e-10       # Schur quotient identity (c3)
RECURSION_ABS_TOL = 1e-12   # gamma recursion, absolute in log space (c4)
COVERAGE_BAND = (0.90, 0.99)  # empirical P(|z| <= 2) over 200 seeds (c9)
TIME_LIMIT_EMBEDDED = 120.0   # seconds, all of c1
TIME_LIMIT_SEARCH = 600.0     # seconds, the 500-trial search in c8


def spd(entries) -> SpdMatrix:
    return SpdMatrix.from_array(np.asarray(entries, dtype=float))


# p, block sizes, alpha (one of p -/+ 0.5 or p + 3), exponents, condition
EMBEDDED_CONFIGS = [
    (1, (1,), 0.5, (0.7,), 1.0),
    (1, (1,), 4.0, (1.3,), 1.0),
    (2, (1, 1), 1.5, (0.6, 1.4), 100.0),
    (2, (2,), 2.5, (2.5,), 1e4),
    (3, (1, 2), 2.5, (0.5, 1.25), 30.0),
    (3, (1, 1, 1), 6.0, (1.5, 0.5, 0.75), 1e3),
    (4, (2, 2), 3.5, (0.5, 1.5), 100.0),
    (4, (1, 2, 1), 4.5, (0.5, 1.5, 0.25), 1e4),
    (5, (2, 3), 5.5, (0.75, 1.25), 10.0),
    (5, (5,), 8.0, (1.5,), 1e3),
    (6, (1, 2, 3), 5.5, (0.5, 0.25, 0.75), 100.0),
    (6, (3, 3), 9.0, (1.25, 0.5), 1e4),
]


def test_c01_embedded_formula_vs_monte_carlo_at_scale():
    """12 configs, p 1-6, 1-3 blocks, fractional exponents: |z| <= 4 at n=1e6."""
    assert len(EMBEDDED_CONFIGS) >= 12
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for i, (p, sizes, alpha, nu, cond) in enumerate(EMBEDDED_CONFIGS):
        sigma = spd(random_spd(rng, p, cond=cond))
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        exact_log = embedded_moment_log(WishartParams(alpha=alpha, sigma=sigma), query).log_value
        est = estimate_embedded(
            WishartParams(alpha=alpha, sigma=sigma), query, N_FULL, seed=1000 + i
        )
        z = compare(exact_log, est).z
        assert abs(z) <= Z_ORACLE, f"config {i}: p={p} sizes={sizes} alpha={alpha} z={z:.2f}"
    assert time.monotonic() - start < TIME_LIMIT_EMBEDDED


def test_c02_hand_checkable_exact_values():
    """E X = 2; E|W| = 6; E(X11 |X|) = 30 — to 1e-10 relative in log space."""
    cases = [
        (2.0, [[1.0]], (1,), (1.0,), 2.0),
        (3.0, np.eye(2), (2,), (1.0,), 6.0),
        (3.0, np.eye(2), (1, 1), (1.0, 1.0), 30.0),
    ]
    for alpha, sigma, sizes, nu, value in cases:
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        got = embedded_moment_log(WishartParams(alpha=alpha, sigma=spd(sigma)), query).log_value
        assert math.isclose(got, math.log(value), rel_tol=LOG_REL_TOL)


def test_c03_schur_quotient_identity_random_matrices():
    """(M/M11) leading block == (leading block of M)/M11, 1000/1000 draws."""
    rng = np.random.default_rng(303)
    conds = (2.0, 10.0, 1e2, 1e3, 1e4)
    passed = 0
    for t in range(1000):
        p = int(rng.integers(2, 9))
        m = random_spd(rng, p, cond=float(conds[t % len(conds)]))
        k = int(rng.integers(1, p))
        j = int(rng.integers(1, p - k + 1))
        full = schur_complement(m, k)[:j, :j]
        sub = schur_complement(m[: k + j, : k + j], k)
        scale = max(1.0, float(np.max(np.abs(sub))))
        passed += np.allclose(full, sub, rtol=QUOTIENT_RTOL, atol=QUOTIENT_RTOL * scale)
    assert passed == 1000


def test_c04_multigamma_recursion_grid():
    """log G_p(b) == (p-1)/2 log pi + lgamma(b) + log G_{p-1}(b-1/2) on a 50-point grid."""
    log_pi = math.log(math.pi)
    for p in range(2, 11):
        for beta in np.linspace((p - 1) / 2 + 0.05, (p - 1) / 2 + 30, 50):
            lhs = log_multigamma(p, beta)
            rhs = (p - 1) / 2 * log_pi + float(gammaln(beta)) + log_multigamma(
                p - 1, beta - 0.5
            )
            assert abs(lhs - rhs) <= RECURSION_ABS_TOL, f"p={p} beta={beta}"


def test_c05_marginal_and_schur_complement_distribution():
    """Split X at k=2: E X11 = a*S11, E(X/X11) = (a-2)*(S/S11), and log|X/X11|
    uncorrelated with X11 — all at n=1e6 within 5 sigma."""
    p, k, alpha = 4, 2, 5.5
    rng = np.random.default_rng(505)
    sigma = random_spd(rng, p, cond=50.0)
    params = WishartParams(alpha=alpha, sigma=spd(sigma))

    chunks, m = 10, N_FULL // 10
    sum_top = np.zeros((k, k))
    sq_top = np.zeros((k, k))
    sum_sc = np.zeros((p - k, p - k))
    sq_sc = np.zeros((p - k, p - k))
    sum_u = sum_uu = 0.0
    sum_v = np.zeros((k, k))
    sq_v = np.zeros((k, k))
    sum_uv = np.zeros((k, k))
    for c in range(chunks):
        draws = sample_bartlett(params, m, seed=5100 + c).draws
        top = draws[:, :k, :k]
        sc = draws[:, k:, k:] - np.matmul(
            draws[:, k:, :k], np.linalg.solve(top, draws[:, :k, k:])
        )
        u = np.linalg.slogdet(sc)[1]
        sum_top += top.sum(axis=0)
        sq_top += (top**2).sum(axis=0)
        sum_sc += sc.sum(axis=0)
        sq_sc += (sc**2).sum(axis=0)
        sum_u += u.sum()
        sum_uu += (u**2).sum()
        sum_v += top.sum(axis=0)
        sq_v += (top**2).sum(axis=0)
        sum_uv += np.einsum("m,mij->ij", u, top)
    n = chunks * m

    def band(total, total_sq, want):
        mean = total / n
        se = np.sqrt((total_sq / n - mean**2) / (n - 1))
        assert np.all(np.abs(mean - want) <= Z_DISTRIBUTIONAL * se)

    band(sum_top, sq_top, alpha * sigma[:k, :k])
    band(sum_sc, sq_sc, (alpha - k) * schur_complement(sigma, k))

    # correlation of log-det of the complement with each top-block entry
    cov = sum_uv / n - (sum_u / n) * (sum_v / n)
    var_u = sum_uu / n - (sum_u / n) ** 2
    var_v = sq_v / n - (sum_v / n) ** 2
    corr = cov / np.sqrt(var_u * var_v)
    assert np.all(np.abs(corr) <= Z_DISTRIBUTIONAL / math.sqrt(n))


def test_c06_sampler_cross_agreement():
    """Triangular vs sum-of-outer-products samplers: E X and E log|X| agree
    within 5 pooled standard errors at n=1e6 each."""
    p, alpha = 3, 5.0
    rng = np.random.default_rng(606)
    sigma = random_spd(rng, p, cond=20.0)
    params = WishartParams(alpha=alpha, sigma=spd(sigma))
    chunks, m = 10, N_FULL // 10

    def accumulate(sampler, base_seed, logdet_of):
        s = np.zeros((p, p))
        sq = np.zeros((p, p))
        s_ld = sq_ld = 0.0
        for c in range(chunks):
            batch = sampler(params, m, seed=base_seed + c)
            s += batch.draws.sum(axis=0)
            sq += (batch.draws**2).sum(axis=0)
            ld = logdet_of(batch)
            s_ld += ld.sum()
            sq_ld += (ld**2).sum()
        n = chunks * m
        mean = s / n
        se = np.sqrt((sq / n - mean**2) / (n - 1))
        mean_ld = s_ld / n
        se_ld = math.sqrt((sq_ld / n - mean_ld**2) / (n - 1))
        return mean, se, mean_ld, se_ld

    def factor_logdet(batch):
        diag = np.diagonal(batch.factors, axis1=1, axis2=2)
        return 2.0 * np.log(diag).sum(axis=1)

    def direct_logdet(batch):
        return np.linalg.slogdet(batch.draws)[1]

    mean_b, se_b, ld_b, ld_se_b = accumulate(sample_bartlett, 6100, factor_logdet)
    mean_g, se_g, ld_g, ld_se_g = accumulate(sample_gaussian_sum, 6700, direct_logdet)
    pooled = np.sqrt(se_b**2 + se_g**2)
    assert np.all(np.abs(mean_b - mean_g) <= Z_DISTRIBUTIONAL * pooled)
    assert abs(ld_b - ld_g) <= Z_DISTRIBUTIONAL * math.hypot(ld_se_b, ld_se_g)


def test_c07_disjoint_minor_oracles():
    """E(X11 X22) = a^2 + 2 a rho^2 = 5 by Wick pairing at n=1e6, then the
    block-diagonal exact product vs Monte Carlo on 5 configurations."""
    params = WishartParams(alpha=2.0, sigma=spd([[1.0, 0.5], [0.5, 1.0]]))
    query = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
    est = estimate_disjoint(params, query, N_FULL, seed=700)
    assert abs(est.mean - 5.0) <= Z_ORACLE * est.stderr

    rng = np.random.default_rng(707)
    configs = [
        ((1, 1), 2.5, (0.7, 1.3)),
        ((1, 2), 3.5, (1.5, 0.5)),
        ((2, 2), 4.5, (0.5, 1.25)),
        ((1, 3, 1), 5.5, (0.25, 0.75, 1.5)),
        ((2, 2, 2), 7.0, (0.5, 1.0, 0.75)),
    ]
    for i, (sizes, alpha, nu) in enumerate(configs):
        sigma = spd(block_diag(*(random_spd(rng, s, cond=30.0) for s in sizes)))
        query = MomentQuery(partition=BlockPartition(sizes), nu=nu)
        exact_log = disjoint_moment_block_diag_log(WishartParams(alpha=alpha, sigma=sigma), query)
        est = estimate_disjoint(
            WishartParams(alpha=alpha, sigma=sigma), query, N_BLOCK, seed=7100 + i
        )
        z = compare(exact_log, est).z
        assert abs(z) <= Z_ORACLE, f"config {i}: sizes={sizes} alpha={alpha} z={z:.2f}"


def test_c08_product_inequality_tooling():
    """Scalar Gaussian ratio curve matches 1 + 2 rho^2 on 5 correlations, and a
    500-trial search over unit-block Wishart instances finishes inside its
    budget with zero inconsistent verdicts after escalation."""
    for i, rho in enumerate((0.0, 0.25, 0.5, 0.75, 0.9)):
        # Z ~ N(0, R) is the alpha = 1, unit-block Wishart with scale R.
        inst = WishartGpiInstance(
            params=WishartParams(alpha=1.0, sigma=spd([[1.0, rho], [rho, 1.0]])),
            partition=BlockPartition((1, 1)),
            nu=(1.0, 1.0),
        )
        res = gpi_ratio(inst, N_BLOCK, seed=800 + i)
        want = 1.0 + 2.0 * rho * rho
        assert abs(res.ratio - want) <= Z_ORACLE * res.ratio_stderr, f"rho={rho}"

    config = SearchConfig(
        kind="wishart",
        dims=(1, 3),
        trials=500,
        samples=N_TRIAL,
        seed=808,
        alpha_range=(1.0, 6.0),
    )
    start = time.monotonic()
    report = search(config)
    assert time.monotonic() - start < TIME_LIMIT_SEARCH
    assert len(report.trials) == 500
    inconsistent = [
        r.index for r in report.trials if r.result.verdict is Verdict.INCONSISTENT
    ]
    assert inconsistent == []


def test_c09_z_score_calibration():
    """200 replicates of a fixed config: the |z| <= 2 rate lands in [0.90, 0.99]."""
    alpha, sigma = 3.0, spd(np.eye(2))
    query = MomentQuery(partition=BlockPartition((1, 1)), nu=(1.0, 1.0))
    params = WishartParams(alpha=alpha, sigma=sigma)
    exact_log = embedded_moment_log(params, query).log_value
    hits = 0
    for s in range(200):
        est = estimate_embedded(params, query, N_COVERAGE, seed=9000 + s)
        hits += abs(compare(exact_log, est).z) <= 2.0
    assert COVERAGE_BAND[0] <= hits / 200 <= COVERAGE_BAND[1], f"rate={hits / 200}"


def test_c10_cli_byte_identical_reruns(tmp_path, capsys):
    """Each subcommand, run twice with identical flags and seed, emits
    byte-identical stdout and artifact files."""
    sig2 = tmp_path / "sigma2.csv"
    write_matrix_csv(np.array([[1.0, 0.25], [0.25, 2.0]]), str(sig2))
    draws = tmp_path / "draws.csv"
    trials = tmp_path / "trials.jsonl"
    commands = [
        ["exact", "--alpha", "3.5", "--sigma", str(sig2),
         "--partition", "1,1", "--nu", "0.5,1.5", "--seed", "1", "--workers", "2"],
        ["verify", "--alpha", "3.5", "--sigma", str(sig2), "--partition", "2",
         "--nu", "1.5", "--mode", "embedded", "--samples", "20000",
         "--seed", "2", "--workers", "2"],
        ["sample", "--alpha", "4.0", "--sigma", str(sig2), "--count", "6",
         "--method", "bartlett", "--seed", "3", "--workers", "2",
         "--out", str(draws)],
        ["gpi", "--kind", "wishart", "--dims", "1:2", "--alpha-range", "1.5:5",
         "--trials", "4", "--samples", "4000", "--seed", "4", "--workers", "2",
         "--out", str(trials)],
    ]
    artifacts = {"sample": draws, "gpi": trials}
    for argv in commands:
        outputs = []
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            cap = capsys.readouterr()
            payload = cap.out + "\x00" + cap.err
            path = artifacts.get(argv[0])
            if path is not None:
                payload += "\x00" + path.read_text()
            outputs.append(payload)
        assert outputs[0] == outputs[1], f"{argv[0]} rerun differed"
    # sanity: the verify line above actually exercised the full record
    assert json.loads(
        run_json(["verify", "--alpha", "3.5", "--sigma", str(sig2),
                  "--partition", "2", "--nu", "1.5", "--mode", "embedded",
                  "--samples", "20000", "--seed", "2", "--workers", "2"],
                 capsys)
    )["verdict"] == "consistent"


def run_json(argv, capsys):
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out
