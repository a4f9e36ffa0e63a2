"""Acceptance gate: seven criteria, one test and one printed verdict each.

Each test aggregates its sub-checks, prints a single
``ACCEPTANCE <k> PASS/FAIL`` line on the real stdout (visible regardless of
capture), and then asserts.  Sample sizes and tolerances are the contract
values, not reduced smoke figures, so this module dominates suite runtime.
"""

import json
import sys
import time

import numpy as np

import bineg.harness as harness
from bineg.channels import haar_unitary
from bineg.cli import main as cli_main
from bineg.linalg import (
    dagger,
    frobenius_distance,
    hermitian_eig,
    kron,
    negative_part,
    partial_transpose,
)
from bineg.measures import (
    _region_bounds,
    bineg_lower_given_nu,
    bineg_mems,
    binegativity,
    boundary_bineg,
    boundary_p_range,
    c_of_nu,
    closed_form_pqr,
    concurrence,
    negative_eigvec_mu,
    negativity,
    nu_of_c,
    region_bounds,
)
from bineg.states import (
    boundary_family,
    is_ppt,
    projector,
    random_mixed,
    random_pure,
    sigma_mems,
)

import mp_oracle

SEED = 42

# collected verdict lines, replayed by conftest's terminal-summary hook so
# they stay visible when pytest captures stdout
VERDICT_LINES = []


def _verdict(number, description, failures, detail=""):
    tag = "FAIL" if failures else "PASS"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {tag}: {description}{suffix}"
    VERDICT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert not failures, "; ".join(failures)


def _feasible_pairs():
    """100 strictly feasible (c, nu) pairs spread over the wedge."""
    pairs = []
    for c in np.linspace(0.1, 0.95, 10):
        floor = nu_of_c(c)
        for frac in np.linspace(0.08, 0.92, 10):
            pairs.append((float(c), float(floor + frac * (c - floor))))
    return pairs


def test_criterion_1_exact_state_oracle(tmp_path):
    failures = []
    expected = {
        "rho1": (0.5, 0.375, 0.3675),
        "rho2": (0.5, 0.375, 77.0 / 216.0),
    }
    for name, want in expected.items():
        out = tmp_path / f"{name}.json"
        code = cli_main(["compute", "--state", name, "--out", str(out)])
        if code != 0:
            failures.append(f"compute {name} exited {code}")
            continue
        got = json.loads(out.read_text())
        for key, val in zip(("c", "nu", "n2"), want):
            err = abs(got[key] - val)
            if err > 1e-10:
                failures.append(f"{name} {key}: |{got[key]} - {val}| = {err:.2e}")
    _verdict(1, "compute rho1/rho2 reproduce exact measure triples to 1e-10", failures)


def test_criterion_2_closed_form_equivalence():
    t0 = time.perf_counter()
    report = harness.verify_closed_forms(grid_density=20, seed=SEED)
    elapsed = time.perf_counter() - t0
    failures = []
    if report.n_violations:
        failures.append(f"{report.n_violations} grid points disagree")
    if report.max_gap > 1e-9:
        failures.append(f"max gap {report.max_gap:.2e} > 1e-9")
    g = np.linspace(0.0, 1.0, 20)
    p, q, r = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
    _, derived = closed_form_pqr(p, q, r)
    if not ((derived.alpha > derived.beta).any() and (derived.alpha < derived.beta).any()):
        failures.append("grid does not exercise both branches")
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _verdict(
        2,
        "closed-form measures match diagonalization on the 20^3 grid to 1e-9",
        failures,
        f"max gap {report.max_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_proven_property_suite():
    t0 = time.perf_counter()
    failures = []
    n = 100_000
    for rank in (2, 3, 4):
        rho = random_mixed(rank, SEED + rank, size=n)
        c = concurrence(rho)
        nu = negativity(rho)
        n2 = binegativity(rho)
        mu = negative_eigvec_mu(rho)
        ent = nu > 0.0

        bad = np.count_nonzero(n2 > nu + 1e-10) + np.count_nonzero(nu > c + 1e-10)
        if bad:
            failures.append(f"rank {rank}: ordering violated {bad} times")

        ppt = is_ppt(rho)
        if not np.array_equal(n2 == 0.0, ppt):
            failures.append(f"rank {rank}: faithfulness N2=0 <-> PPT broken")

        w = np.linalg.eigvalsh(partial_transpose(rho))
        n_neg = np.count_nonzero(w < -1e-11, axis=-1)
        if not np.array_equal(n_neg == 1, ent):
            failures.append(f"rank {rank}: negative-eigenvalue count != 1 on entangled")

        first = negative_part(partial_transpose(rho))
        tr1 = np.trace(first, axis1=-2, axis2=-1).real
        tr2 = np.trace(
            negative_part(partial_transpose(first)), axis1=-2, axis2=-1
        ).real
        gap = np.abs(tr2[ent] - np.sqrt(mu[ent] * (1.0 - mu[ent])) * tr1[ent])
        if gap.size and gap.max() > 1e-10:
            failures.append(f"rank {rank}: structure identity off by {gap.max():.2e}")

        u = kron(haar_unitary(2, 1000 + rank, size=n), haar_unitary(2, 2000 + rank, size=n))
        rotated = u @ rho @ dagger(u)
        for label, f, ref in (
            ("concurrence", concurrence, c),
            ("negativity", negativity, nu),
            ("binegativity", binegativity, n2),
        ):
            d = np.abs(f(rotated) - ref).max()
            if d > 1e-10:
                failures.append(f"rank {rank}: {label} not LU-invariant ({d:.2e})")

    psi = random_pure(SEED, size=10_000)
    pure = projector(psi)
    s = np.linalg.svd(psi.reshape(-1, 2, 2), compute_uv=False)
    target = 2.0 * np.sqrt((s[:, 0] ** 2) * (1.0 - s[:, 0] ** 2))
    for label, vals in (
        ("concurrence", concurrence(pure)),
        ("negativity", negativity(pure)),
        ("binegativity", binegativity(pure)),
    ):
        d = np.abs(vals - target).max()
        if d > 1e-10:
            failures.append(f"pure states: {label} differs from 2 sqrt(mu(1-mu)) by {d:.2e}")

    _verdict(
        3,
        "proven properties hold on 1e5 states per rank and 1e4 pure states",
        failures,
        f"{time.perf_counter() - t0:.0f}s",
    )


def test_criterion_4_bound_saturation():
    failures = []
    for k in range(1, 20):
        c = 0.05 * k
        d_nu = abs(negativity(sigma_mems(c)) - nu_of_c(c))
        d_n2 = abs(binegativity(sigma_mems(c)) - bineg_mems(c))
        if d_nu > 1e-10:
            failures.append(f"mems c={c:.2f}: negativity off curve by {d_nu:.2e}")
        if d_n2 > 1e-10:
            failures.append(f"mems c={c:.2f}: binegativity off curve by {d_n2:.2e}")

    for c, nu in _feasible_pairs():
        p_lo, p_hi = boundary_p_range(c, nu)
        lower, upper = region_bounds(c, nu)
        for p, want in ((p_lo, upper), (p_hi, lower)):
            rho = boundary_family(c, nu, p)
            if abs(binegativity(rho) - want) > 1e-9:
                failures.append(
                    f"family (c={c:.3f}, nu={nu:.3f}, p={p:.3f}) misses bound"
                )
            if abs(concurrence(rho) - c) > 1e-9 or abs(negativity(rho) - nu) > 1e-9:
                failures.append(f"family (c={c:.3f}, nu={nu:.3f}) wrong measure pair")

    lower, upper = region_bounds(0.5, 0.375)
    p_lo, p_hi = boundary_p_range(0.5, 0.375)
    if abs(upper - 147.0 / 400.0) > 1e-12 or abs(lower - 77.0 / 216.0) > 1e-12:
        failures.append("region_bounds(1/2, 3/8) not the exact rationals")
    if abs(binegativity(boundary_family(0.5, 0.375, p_lo)) - 147.0 / 400.0) > 1e-10:
        failures.append("p_min state misses 147/400")
    if abs(binegativity(boundary_family(0.5, 0.375, p_hi)) - 77.0 / 216.0) > 1e-10:
        failures.append("p_max state misses 77/216")

    _verdict(4, "mems and boundary families saturate their bounds", failures)


def test_criterion_5_conjecture_sweeps(tmp_path):
    # The region sweep has a genuine finding: about 0.5% of rank-2 states lie
    # above the conjectured upper surface (nu/2)(c+nu)^2/(c^2+nu^2), which is
    # the maximum of the boundary family (boundary_bineg at p_min).  This
    # criterion pins those findings for seed 42, certifies each one with an
    # independent 40-digit oracle, and requires everything else to be clean.
    t0 = time.perf_counter()
    failures = []
    tol = 1e-9

    region = harness.verify_region(100_000, rank=2, seed=SEED, tol=tol)
    kinds = sorted({v.kind for v in region.violations})
    if region.n_violations != 532 or kinds != ["region_eq9"]:
        failures.append(
            f"region sweep found {region.n_violations} violations of kinds {kinds}, "
            "expected 532 region_eq9"
        )
    if abs(region.max_gap - 4.082e-3) > 1e-6:
        failures.append(f"region sweep worst gap {region.max_gap:.4e}, expected 4.082e-3")
    rho = np.array([v.state for v in region.violations])
    if len(rho):
        lower, upper = _region_bounds(concurrence(rho), negativity(rho))
        n2 = binegativity(rho)
        if np.count_nonzero(n2 <= upper) or np.count_nonzero(n2 < lower):
            failures.append("region records not all strictly above the upper surface")

    # certification costs about 20 ms a record, so it runs on the pinned
    # record set only; a wrong count has already failed the criterion above
    certified = []
    if region.n_violations == 532:
        certified, problems = mp_oracle.certify(region.violations, tol)
        failures.extend(problems)
    worst = max(certified, default=0.0)

    code = cli_main(
        [
            "verify", "region", "--samples", "100000", "--seed", str(SEED),
            "--out", str(tmp_path / "region.json"),
        ]
    )
    if code != 2:
        failures.append(f"verify region CLI exited {code}, expected finding code 2")
    cli_report = json.loads((tmp_path / "region.json").read_text())
    if [v["index"] for v in cli_report["violations"]] != [
        v.index for v in region.violations
    ]:
        failures.append("verify region CLI lists other indices than the library sweep")

    for kind in ("local", "one_way_locc", "ppt"):
        rep = harness.monotonicity_sweep(10_000, channel_kind=kind, seed=SEED)
        if rep.n_violations:
            failures.append(f"monotonicity {kind}: {rep.n_violations} findings")

    forced = cli_main(
        [
            "monotonic", "--samples", "5", "--channel", "local", "--seed", "8",
            "--tol", "-1", "--out", str(tmp_path / "forced.json"),
        ]
    )
    if forced != 2:
        failures.append(f"violation exit code is {forced}, expected 2")

    fig_dir = tmp_path / "figs"
    f1 = harness.figure_data("fig1", 2000, seed=SEED, out_dir=str(fig_dir))
    c, n2 = np.loadtxt(f1[0], delimiter=",", skiprows=1, unpack=True)
    if not (np.all(n2 <= c + 1e-9) and np.all(n2 >= bineg_mems(np.clip(c, 0, 1)) - 1e-9)):
        failures.append("fig1 scatter escapes its bound curves")
    f2 = harness.figure_data("fig2", 2000, seed=SEED, out_dir=str(fig_dir))
    nu, n2 = np.loadtxt(f2[0], delimiter=",", skiprows=1, unpack=True)
    if not (
        np.all(n2 <= nu + 1e-9)
        and np.all(n2 >= bineg_lower_given_nu(np.clip(nu, 0, 1)) - 1e-9)
    ):
        failures.append("fig2 scatter escapes its bound curves")
    f3 = harness.figure_data("fig3", 2000, seed=SEED, out_dir=str(fig_dir))
    c, cmn, nmn = np.loadtxt(f3[0], delimiter=",", skiprows=1, unpack=True)
    c = np.clip(c, 0, 1)
    nu, n2 = np.clip(c - cmn, 0, 1), c - cmn - nmn
    lower, upper = _region_bounds(c, nu)
    off_wedge = np.count_nonzero((nu < nu_of_c(c) - 1e-9) | (nu > c + 1e-9))
    below = np.count_nonzero(n2 < lower - 1e-9)
    excess = n2 - upper
    above = np.count_nonzero(excess > 1e-9)
    if off_wedge or below:
        failures.append(f"fig3 scatter: {off_wedge} points off the wedge, {below} below the region")
    if above != 10 or excess.max() > worst:
        failures.append(
            f"fig3 scatter: {above}/2000 points above the upper surface (expected 10), "
            f"worst by {excess.max():.2e} against certified {worst:.2e}"
        )

    _verdict(
        5,
        "conjecture sweeps report only the 532 certified upper-surface findings",
        failures,
        f"worst certified gap {worst:.3e}, {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_6_inverse_and_structural_checks():
    failures = []
    x = np.linspace(0.0, 1.0, 1000)
    d1 = np.abs(nu_of_c(c_of_nu(x)) - x).max()
    d2 = np.abs(c_of_nu(nu_of_c(x)) - x).max()
    if max(d1, d2) > 1e-12:
        failures.append(f"inverse pair drifts by {max(d1, d2):.2e}")

    for c, nu in _feasible_pairs():
        p_lo, p_hi = boundary_p_range(c, nu)
        vals = [boundary_bineg(c, nu, p) for p in np.linspace(p_lo, p_hi, 25)]
        if not np.all(np.diff(vals) < 0):
            failures.append(f"boundary binegativity not decreasing at (c={c:.2f}, nu={nu:.2f})")
            break

    rng = np.random.default_rng(SEED)
    g = rng.normal(size=(10_000, 4, 4)) + 1j * rng.normal(size=(10_000, 4, 4))
    m = (g + dagger(g)) / 2.0
    w, v = hermitian_eig(m)
    recon = (v * w[..., None, :]) @ dagger(v)
    worst = float(frobenius_distance(recon, m).max())
    if worst > 1e-12:
        failures.append(f"eigensolver reconstruction error {worst:.2e} > 1e-12")

    _verdict(
        6,
        "inverse curves, boundary monotonicity and eigensolver reconstruction hold",
        failures,
        f"recon {worst:.1e}",
    )


def test_criterion_7_reproducibility(tmp_path):
    failures = []

    def bytes_of(path):
        with open(path, "rb") as f:
            return f.read()

    runs = [
        (["compute", "--state", "rho1"], "compute.json"),
        (
            ["verify", "region", "--samples", "2000", "--seed", "11"],
            "region.json",
        ),
        (["monotonic", "--samples", "200", "--channel", "local", "--seed", "5"], "mono.json"),
        (
            ["search", "--restarts", "2", "--steps", "5", "--seed", "5"],
            "search.json",
        ),
        (
            ["verify", "ordering", "--samples", "500", "--seed", "5", "--format", "csv"],
            "ord.csv",
        ),
    ]
    for argv, name in runs:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        cli_main(argv + ["--out", str(a)])
        cli_main(argv + ["--out", str(b)])
        if bytes_of(a) != bytes_of(b):
            failures.append(f"{' '.join(argv)} not byte-stable")

    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    for d in (d1, d2):
        cli_main(["figure", "fig2", "--samples", "500", "--seed", "7", "--out", str(d)])
    for name in ("fig2_scatter.csv", "fig2_bounds.csv"):
        if bytes_of(d1 / name) != bytes_of(d2 / name):
            failures.append(f"figure output {name} not byte-stable")

    _verdict(7, "identical commands and seeds produce byte-identical outputs", failures)
