"""End-to-end acceptance checks.

One test per criterion; each appends a single pass/fail summary line
that the conftest hook prints after the run.  Tolerance on cost
comparisons is 1e-9 throughout.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES
from snnkit.core import brute_force_opt, cost, pruning_gap
from snnkit.denoise import NoiseConfig, pixel_gap_experiment
from snnkit.exact import bb_opt
from snnkit.generators import cartoon_fixture
from snnkit.inn import inn_solve, pruned_label_set
from snnkit.io import load_instance
from snnkit.lowerbound import (LowerBoundParams, build_lower_bound_instance,
                               default_multiplicity)
from snnkit.metric import LatticeBox, triangle_violations
from snnkit.sparse import rplus_solve, sparse_assign
from snnkit.treemetric import build_tree_metric
from snnkit.zeroext import back_translate, snn_to_zero_extension, zero_ext_exact

TOL = 1e-9
FIXTURES = sorted(Path(__file__).parent.glob("fixtures/*.json"))


def record(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_orientation_solver_bound(sweep):
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for item in sweep.items:
        a = rplus_solve(item.inst)
        bound = (2 * item.r + 1) * item.opt.total
        if a.total > bound + TOL:
            violations += 1
        if item.opt.total > 0:
            worst = max(worst, a.total / ((2 * item.r + 1) * item.opt.total))
    elapsed = sweep.build_seconds + (time.perf_counter() - t0)
    ok = violations == 0 and elapsed < 120
    record(1, ok, f"rplus within (2r+1)*OPT on {len(sweep.items)} instances, "
                  f"0 violations expected, got {violations}; "
                  f"worst ratio-of-bound {worst:.3f}; {elapsed:.1f}s < 120s")
    assert violations == 0
    assert elapsed < 120


def test_criterion_2_pruning_gap_constants(sweep):
    gap_viol = nn_viol = pw_viol = 0
    worst_alpha_slack = 0.0
    for item in sweep.items:
        inst, opt, r = item.inst, item.opt, item.r
        pruned = brute_force_opt(inst, allowed=pruned_label_set(inst).label_idx) \
            if inst.has_explicit_labels else None
        alpha = 1.0 if opt.total == pruned.total == 0 \
            else pruned.total / opt.total
        if alpha > 4 * r + 3 + TOL:
            gap_viol += 1
        worst_alpha_slack = max(worst_alpha_slack, alpha / (4 * r + 3))
        a, _ = sparse_assign(inst, opt)
        if a.nn_cost > 3 * opt.nn_cost + TOL:
            nn_viol += 1
        if a.pw_cost > 4 * opt.pw_cost + 4 * r * opt.nn_cost + TOL:
            pw_viol += 1
    ok = gap_viol == nn_viol == pw_viol == 0
    record(2, ok, f"alpha <= 4r+3 and sparse bounds on {len(sweep.items)} "
                  f"instances; violations gap={gap_viol} nn={nn_viol} "
                  f"pw={pw_viol}; max alpha/(4r+3) = {worst_alpha_slack:.3f}")
    assert gap_viol == 0
    assert nn_viol == 0
    assert pw_viol == 0


def test_criterion_3_reduction_bound(sweep):
    violations = 0
    worst = 0.0
    for item in sweep.items:
        z = snn_to_zero_extension(item.inst)
        f, _ = zero_ext_exact(z)
        a = back_translate(item.inst, f)
        if a.total > 3 * item.opt.total + TOL:
            violations += 1
        if item.opt.total > 0:
            worst = max(worst, a.total / item.opt.total)
    ok = violations == 0
    record(3, ok, f"back-translated 0-extension within 3*OPT on "
                  f"{len(sweep.items)} instances; {violations} violations; "
                  f"worst ratio {worst:.3f}")
    assert violations == 0


def test_criterion_4_lower_bound_trend():
    t0 = time.perf_counter()
    d = 3
    oracle_ks = [4, 8]
    alphas = []
    for k in oracle_ks:
        p = LowerBoundParams(k=k, d=d, multiplicity=default_multiplicity(k),
                             seed=42)
        inst = build_lower_bound_instance(p)
        full = bb_opt(inst, node_budget=2_000_000)
        leaves = np.arange(k, 2 * k)
        pruned = bb_opt(inst, allowed=leaves, node_budget=2_000_000)
        alphas.append(pruned.total / full.total)

    def best_found(inst, allowed=None):
        """Cheapest labeling found by sweeps plus the orientation solver."""
        ids = np.arange(inst.n_labels) if allowed is None else np.asarray(allowed)
        single = min(cost(inst, np.full(inst.k, int(i))).total for i in ids)
        return min(single, rplus_solve(inst, allowed=allowed).total)

    # k=16: the restricted side is still exactly solvable, the full side
    # is not, so pair the exact restricted optimum with a feasible upper
    # bound on the full optimum; the ratio under-estimates alpha.
    p16 = LowerBoundParams(k=16, d=d, multiplicity=default_multiplicity(16),
                           seed=42)
    i16 = build_lower_bound_instance(p16)
    pruned16 = bb_opt(i16, allowed=np.arange(16, 32), node_budget=2_000_000)
    est16 = pruned16.total / best_found(i16)

    estimates = {16: est16}
    for k in (32, 64):
        p = LowerBoundParams(k=k, d=d, multiplicity=default_multiplicity(k),
                             seed=42)
        inst = build_lower_bound_instance(p)
        estimates[k] = (best_found(inst, allowed=np.arange(k, 2 * k))
                        / best_found(inst))
    elapsed = time.perf_counter() - t0

    nondecreasing = all(a2 >= a1 - TOL for a1, a2 in zip(alphas, alphas[1:]))
    ok = nondecreasing and alphas[-1] >= 1.2 and est16 >= 1.2 and elapsed < 600
    detail = (f"exact alpha at k={oracle_ks}: "
              + ", ".join(f"{a:.4f}" for a in alphas)
              + f"; certified lower estimate at k=16: {est16:.4f}"
              + "".join(f"; best-found estimate k={k}: {estimates[k]:.4f}"
                        for k in (32, 64))
              + f"; {elapsed:.1f}s < 600s")
    record(4, ok, detail)
    assert nondecreasing
    assert alphas[-1] >= 1.2
    assert est16 >= 1.2
    assert elapsed < 600


def test_criterion_5_denoise_gap(cartoon):
    t0 = time.perf_counter()
    noise = NoiseConfig(kind="salt-pepper", density=0.05, seed=42)
    _, rep = pixel_gap_experiment(cartoon, noise)
    elapsed = time.perf_counter() - t0
    gap = rep.empirical_gap
    ok = 0.85 <= gap <= 1.15 and elapsed < 900
    cert = ("none" if rep.certified_factor is None
            else f"image ÷ LB ≤ {rep.certified_factor:.4f}")
    record(5, ok, f"empirical pruning gap {gap:.4f} in [0.85, 1.15] "
                  f"(reference range 0.914-1.024); certified {cert} "
                  f"(LB {rep.lower_bound:.1f}); {elapsed:.1f}s < 900s")
    assert 0.85 <= gap <= 1.15
    assert elapsed < 900


def test_criterion_6_oracle_self_consistency(sweep):
    checked = 0
    max_delta = 0.0
    insts = [item.inst for item in sweep.items]
    insts += [load_instance(p) for p in FIXTURES]
    for inst in insts:
        want = brute_force_opt(inst, allowed=pruned_label_set(inst).label_idx)
        got = inn_solve(inst, "exact")
        max_delta = max(max_delta, abs(want.total - got.total))
        checked += 1
    ok = max_delta <= TOL
    record(6, ok, f"inn exact stage 2 equals restricted enumeration on "
                  f"{checked} instances; max |delta| = {max_delta:.2e}")
    assert max_delta <= TOL


def test_criterion_7_metric_axioms(sweep):
    finite = [item.inst.space.matrix for item in sweep.items
              if hasattr(item.inst.space, "matrix")]
    for k in (4, 8, 16):
        p = LowerBoundParams(k=k, d=3, multiplicity=default_multiplicity(k),
                             seed=42)
        finite.append(build_lower_bound_instance(p).space.matrix)
    tri_viol = 0
    for M in finite:
        assert M.shape[0] <= 64
        tri_viol += triangle_violations(M)

    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    rng = np.random.default_rng(123)
    A = rng.integers(0, 256, (100_000, 3))
    B = rng.integers(0, 256, (100_000, 3))
    eu = np.linalg.norm((A - B).astype(float), axis=1)
    dom_viol = int(np.sum(tm.tree_dist(A, B) + TOL < eu))
    ok = tri_viol == 0 and dom_viol == 0
    record(7, ok, f"triangle inequality exhaustive on {len(finite)} finite "
                  f"metrics ({tri_viol} violations); tree distance dominated "
                  f"Euclidean on 100000 pairs ({dom_viol} violations)")
    assert tri_viol == 0
    assert dom_viol == 0
