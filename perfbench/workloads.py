"""The benchmark workloads: inputs made from a seed, one pass of solves, checks.

A pass is one closed loop over the workload's solves: one client, each solve
starting after the previous one returns.  Every solve is timed around the
calls into snnkit only; its outputs are then checked outside the timed
region.  A solve fails when a guard or node budget is exceeded or when a
check fails; it still counts as attempted.

Every call into snnkit names its module (`core.brute_force_opt`), so a
traced run, which swaps module attributes, sees it.  Import this module
after `src/` is on sys.path.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from snnkit import core, denoise, exact, generators, graphs, inn, lowerbound, sparse, zeroext

# The tests' tolerances: the exact solvers' tests compare absolutely
# (`approx(abs=1e-9)`, `<= bound + 1e-9`), the pixel-cost tests relatively
# (`approx(rel=1e-9)`), as pixel totals reach 1e6 and are summed in another order.
ABS_TOL = 1e-9
REL_TOL = 1e-9
FAULTS = ("off-palette", "total")


def close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= tol


def within(a: float, b: float) -> bool:
    """a <= b up to the absolute tolerance."""
    return a <= b + ABS_TOL


def pixel_tol(total: float) -> float:
    return REL_TOL * abs(total)


def colour_codes(pixels) -> np.ndarray:
    p = np.asarray(pixels).reshape(-1, 3).astype(np.int64)
    return (p[:, 0] << 16) | (p[:, 1] << 8) | p[:, 2]


@dataclass
class Solve:
    seconds: float
    queries: int
    failure: str | None = None


@dataclass
class PassResult:
    solves: list[Solve] = field(default_factory=list)
    objective: float = 0.0
    extras: dict = field(default_factory=dict)

    def record(self, seconds, queries, problems) -> None:
        self.solves.append(Solve(seconds, queries, "; ".join(problems) or None))

    def fail_all(self, reason: str) -> None:
        """Count every solve of this pass as failed, for a fault seen only per pass."""
        for s in self.solves:
            s.failure = s.failure or reason


# ---------------------------------------------------------------- exact-certify


@dataclass
class CertifyInputs:
    instances: list
    family: list    # (instance, allowed label ids or None, also solve by enumeration)


class ExactCertify:
    """Random small instances through every exact and bounded solver, then
    branch-and-bound on the expander-with-leaves family.

    The draws are stratified: random_instance is sampled until every
    (queries, labels) size class holds `per_class` instances, so the number
    of enumeration states is the same for every seed and only the instances
    themselves vary.  The family members are the fixed seed-42 graphs that
    acceptance criterion 4 uses; their node counts are seed-independent.
    The objective is the sum of the family's certified optima, so it is the
    same for every seed and any change to it is a wrong answer.
    """

    name = "exact-certify"
    SIZES = {"full": dict(per_class=20, max_queries=6, max_labels=8,
                          family=((12, False), (16, True)), check_k=4),
             "smoke": dict(per_class=1, max_queries=3, max_labels=4,
                           family=((6, False), (8, True)), check_k=4)}
    FAMILY_SEED = 42
    NODE_BUDGET = 2_000_000

    def __init__(self, scale: str):
        self.size = self.SIZES[scale]

    def setup(self, seed: int) -> CertifyInputs:
        s = self.size
        rng = np.random.default_rng(seed)
        quota: dict[tuple[int, int], int] = {}
        target = s["per_class"] * s["max_queries"] * s["max_labels"]
        instances = []
        while len(instances) < target:
            inst = generators.random_instance(rng, max_queries=s["max_queries"],
                                              max_labels=s["max_labels"])
            key = (inst.k, inst.n_labels)
            if quota.get(key, 0) < s["per_class"]:
                quota[key] = quota.get(key, 0) + 1
                instances.append(inst)
        family = [(self._member(k), np.arange(k, 2 * k) if leaves_only else None, False)
                  for k, leaves_only in s["family"]]
        family.append((self._member(s["check_k"]), None, True))
        return CertifyInputs(instances, family)

    def _member(self, k):
        return lowerbound.build_lower_bound_instance(lowerbound.LowerBoundParams(
            k=k, d=3, multiplicity=lowerbound.default_multiplicity(k), seed=self.FAMILY_SEED))

    def run_pass(self, inputs: CertifyInputs, tracer, fault=None) -> PassResult:
        res = PassResult()
        worst_rplus = 0.0
        for inst in inputs.instances:
            t0 = perf_counter()
            try:
                full = core.brute_force_opt(inst)
                pl = inn.pruned_label_set(inst)
                pruned = core.brute_force_opt(inst, allowed=pl.label_idx)
                orient = graphs.orient_edges(inst.graph)
                rp = sparse.rplus_solve(inst, orient)
                sa, _ = sparse.sparse_assign(inst, full)
                z = zeroext.snn_to_zero_extension(inst)
                mapping, z_total = zeroext.zero_ext_exact(z)
                bt = zeroext.back_translate(inst, mapping)
                inn_a = inn.inn_solve(inst)
            except core.GuardExceededError as e:
                res.record(perf_counter() - t0, inst.k, [f"guard: {e}"])
                continue
            dt = perf_counter() - t0
            if fault == "total":
                full = replace(full, total=full.total + 2 * ABS_TOL)
            with tracer.untraced():
                problems = self._check_instance(inst, full, pruned, orient.r, rp, sa,
                                                z, mapping, z_total, bt, inn_a, pl)
            res.record(dt, inst.k, problems)
            if full.total > 0:
                worst_rplus = max(worst_rplus, rp.total / ((2 * orient.r + 1) * full.total))
        res.extras["sparse.rplus_bound_ratio"] = worst_rplus

        for inst, allowed, cross_check in inputs.family:
            t0 = perf_counter()
            try:
                a, _ = exact.bb_opt(inst, allowed=allowed, node_budget=self.NODE_BUDGET,
                                    return_stats=True)
                ref = core.brute_force_opt(inst) if cross_check else None
            except (exact.NodeBudgetExceeded, core.GuardExceededError) as e:
                res.record(perf_counter() - t0, inst.k, [f"budget: {e}"])
                continue
            dt = perf_counter() - t0
            with tracer.untraced():
                problems = self._check_labels(inst, "bb_opt", a)
                if ref is not None and not close(a.total, ref.total):
                    problems.append(f"bb_opt {a.total!r} != brute_force_opt {ref.total!r}")
            res.record(dt, inst.k, problems)
            res.objective += a.total
        return res

    @staticmethod
    def _check_labels(inst, what, a) -> list[str]:
        again = core.cost(inst, a.idx).total
        return [] if close(a.total, again) else [f"{what} reports {a.total!r}, labels cost {again!r}"]

    def _check_instance(self, inst, full, pruned, r, rp, sa, z, mapping, z_total, bt,
                        inn_a, pl) -> list[str]:
        bad = []
        for what, a in (("brute_force_opt", full), ("pruned", pruned), ("rplus_solve", rp),
                        ("sparse_assign", sa), ("back_translate", bt), ("inn_solve", inn_a)):
            bad += self._check_labels(inst, what, a)
        opt = full.total
        if not within(opt, pruned.total):
            bad.append("pruned optimum below the full optimum")
        if not within(rp.total, (2 * r + 1) * opt):
            bad.append(f"rplus {rp.total!r} > (2r+1)*OPT with r={r}")
        if not within(sa.nn_cost, 3 * full.nn_cost):
            bad.append("sparse_assign nn cost > 3*OPT_nn")
        if not within(sa.pw_cost, 4 * full.pw_cost + 4 * r * full.nn_cost):
            bad.append("sparse_assign pw cost > 4*OPT_pw + 4r*OPT_nn")
        if not close(z_total, zeroext.zero_ext_cost(z, mapping)):
            bad.append("zero_ext_exact reports a cost its mapping does not have")
        if not within(bt.total, 3 * opt):
            bad.append("back-translated labelling > 3*OPT")
        if not within(opt, inn_a.total):
            bad.append("inn_solve below the optimum")
        if not np.isin(inn_a.idx, pl.label_idx).all():
            bad.append("inn_solve used a label outside the pruned set")
        return bad


# ---------------------------------------------------------------- pixel workloads


@dataclass
class PixelInputs:
    noisy: np.ndarray
    full_instance: object       # the cube instance, for recomputing costs
    palette_codes: np.ndarray   # sorted colour codes of the noisy image
    off_palette: np.ndarray     # a colour not in the palette, for fault injection


class PixelDenoise:
    """One `denoise_pixels` call on a fixed noisy cartoon per solve."""

    def __init__(self, name, label_space, noise_kind, sides, scale):
        self.name = name
        self.label_space = label_space
        self.noise_kind = noise_kind
        self.side = sides[scale]

    def setup(self, seed: int) -> PixelInputs:
        img = generators.cartoon_fixture(self.side, self.side)
        cfg = denoise.NoiseConfig(kind=self.noise_kind, density=0.05, sigma=10.0, seed=seed)
        noisy = denoise.add_noise(img, cfg)
        palette = denoise.pixel_instance(noisy, "image").labels
        full = denoise.pixel_instance(noisy, "full")
        codes = np.unique(colour_codes(noisy))
        if len(codes) != len(palette):
            raise RuntimeError(f"pixel_instance palette has {len(palette)} colours, "
                               f"the image {len(codes)}")
        free = int(np.setdiff1d(np.arange(len(codes) + 1), codes)[0])
        off = np.array([(free >> 16) & 255, (free >> 8) & 255, free & 255], dtype=np.uint8)
        return PixelInputs(noisy, full, codes, off)

    def run_pass(self, inputs: PixelInputs, tracer, fault=None) -> PassResult:
        res = PassResult()
        k = inputs.noisy.shape[0] * inputs.noisy.shape[1]
        t0 = perf_counter()
        run = denoise.denoise_pixels(inputs.noisy, self.label_space)
        dt = perf_counter() - t0
        with tracer.untraced():
            if fault == "total":
                run.total += 2 * pixel_tol(run.total)
            elif fault == "off-palette":    # a consistent total, so only the palette check fails
                run.image[0, 0] = inputs.off_palette
                run.total = self._cost(inputs, run)
            problems = self._check(inputs, run)
        res.record(dt, k, problems)
        res.objective = run.total
        return res

    @staticmethod
    def _cost(inputs: PixelInputs, run) -> float:
        return core.cost_points(inputs.full_instance, run.image.reshape(-1, 3)).total

    def _check(self, inputs: PixelInputs, run) -> list[str]:
        bad = []
        again = self._cost(inputs, run)
        if not close(run.total, again, pixel_tol(again)):
            bad.append(f"denoise_pixels reports {run.total!r}, output costs {again!r}")
        if self.label_space == "image":
            if not np.isin(colour_codes(run.image), inputs.palette_codes).all():
                bad.append("output colour outside the noisy image's palette")
        # On the cube this check cannot fail, as denoise_pixels clips to 0..255
        # and returns uint8.  A label outside the box is caught by the cost
        # check above: the reported total is the cost before clipping.
        elif not inputs.full_instance.labels.contains(run.image):
            bad.append("output colour outside the lattice box")
        return bad


def make(name: str, scale: str = "full"):
    if name == "exact-certify":
        return ExactCertify(scale)
    if name == "palette-gaussian":
        return PixelDenoise(name, "image", "gaussian", {"full": 64, "smoke": 16}, scale)
    if name == "palette-saltpepper":
        return PixelDenoise(name, "image", "salt-pepper", {"full": 256, "smoke": 16}, scale)
    if name == "cube-gaussian":
        return PixelDenoise(name, "full", "gaussian", {"full": 128, "smoke": 16}, scale)
    raise KeyError(name)


NAMES = ("exact-certify", "palette-gaussian", "palette-saltpepper", "cube-gaussian")
