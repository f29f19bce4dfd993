"""Image denoising as joint labeling over a 4-connected pixel grid.

Pixel denoising labels every noisy pixel with an RGB color, trading
fidelity to the observed color against color distance along grid edges
(unit weights, Euclidean RGB).  Two label spaces are compared: the full
{0..255}^3 cube, and the colors present in the noisy image itself; the
latter is exactly what nearest-label pruning of the cube produces.  The
comparison solves each space once: the ratio of the two achieved costs is
an estimated pruning gap, and the palette cost over the certified lower
bound that the cube's convex relaxation gives is a certified factor.

Patch denoising reconstructs the right half of an image from clean 5x5
patches of the left half by the same two-step method: the noisy patches are
queries on their patch grid, labeled with the distinct left-half patches in
the 75-dimensional Euclidean metric, pruned to nearest labels and solved by
ICM.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SnnInstance, make_instance, unique_rows
from .graphs import grid_graph
from .inn import inn_solve
from .metric import EuclideanSpace, LatticeBox
from .nn import lattice_nn_map
from .treesolve import euclidean_refine, relax

PATCH = 5


@dataclass(frozen=True)
class NoiseConfig:
    kind: str = "salt-pepper"   # salt-pepper | gaussian | none
    density: float = 0.05       # per-channel corruption probability
    sigma: float = 10.0         # gaussian std on the 0..255 scale
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ("salt-pepper", "gaussian", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def add_noise(img: np.ndarray, cfg: NoiseConfig) -> np.ndarray:
    """Corrupt an image; each channel value is hit independently."""
    a = np.asarray(img)
    if a.dtype != np.uint8 or a.ndim != 3 or a.shape[2] != 3:
        raise ValueError("expected a (h, w, 3) uint8 image")
    if cfg.kind == "none":
        return a.copy()
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "salt-pepper":
        out = a.copy()
        hit = rng.random(a.shape) < cfg.density
        white = rng.random(a.shape) < 0.5
        out[hit & white] = 255
        out[hit & ~white] = 0
        return out
    noisy = a.astype(float) + rng.normal(0.0, cfg.sigma, size=a.shape)
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def pixel_instance(img: np.ndarray, label_space: str = "full") -> SnnInstance:
    """Joint-labeling instance of an image; queries are its pixel colors."""
    a = np.asarray(img)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValueError("expected a (h, w, 3) image")
    h, w = a.shape[:2]
    queries = a.reshape(-1, 3).astype(float)
    if label_space == "full":
        labels = LatticeBox(0, 255, 3)
    elif label_space == "image":
        labels = unique_rows(queries)[0]
    else:
        raise ValueError(f"unknown label space {label_space!r}")
    return make_instance(EuclideanSpace(3), labels, queries, grid_graph(w, h))


@dataclass(eq=False)
class PixelRun:
    image: np.ndarray
    nn_cost: float
    pw_cost: float
    total: float
    label_space: str
    lower_bound: float | None   # certified bound on the cube optimum ("full" only)


def denoise_pixels(img: np.ndarray, label_space: str = "image") -> PixelRun:
    """Denoise one image over the chosen label space.

    The full cube is solved through its convex relaxation: the relaxed
    colors are rounded to the lattice and refined by ICM.  The image palette
    goes through the pruning pipeline (the palette is what pruning the cube
    keeps) and is solved by ICM from each pixel's own color; past 400
    palette colors ICM starts instead from the cube relaxation's nearest
    palette colors when those cost less.  Neither draws randomness.
    Reported costs are true Euclidean objectives.
    """
    h, w = np.asarray(img).shape[:2]
    inst = pixel_instance(img, "full")
    lower_bound = None
    if label_space == "full":
        x, lower_bound = relax(inst)
        a = euclidean_refine(inst, lattice_nn_map(inst.labels, x))
    elif label_space == "image":
        a = inn_solve(inst, "icm")
    else:
        raise ValueError(f"unknown label space {label_space!r}")
    out = np.clip(np.rint(np.asarray(a.points, dtype=float)), 0, 255)
    out = out.reshape(h, w, 3).astype(np.uint8)
    return PixelRun(image=out, nn_cost=a.nn_cost, pw_cost=a.pw_cost,
                    total=a.total, label_space=label_space, lower_bound=lower_bound)


@dataclass(eq=False)
class DenoiseReport:
    """The two label spaces' solves of one noisy image, compared."""
    full: PixelRun
    image: PixelRun

    @property
    def lower_bound(self) -> float:
        """Certified bound on the cube optimum."""
        return self.full.lower_bound

    @property
    def empirical_gap(self) -> float:
        """An estimate: image cost over a heuristic cube cost."""
        return self.image.total / self.full.total if self.full.total else 1.0

    @property
    def certified_factor(self) -> float | None:
        """Image cost over the lower bound; None unless the bound is positive."""
        return self.image.total / self.lower_bound if self.lower_bound > 0 else None

    def table(self, name: str = "image") -> str:
        head = f"{'input':<12} {'cost (full)':>14} {'cost (image)':>14} {'gap (est.)':>11}"
        row = (f"{name:<12} {self.full.total:>14.1f} {self.image.total:>14.1f} "
               f"{self.empirical_gap:>11.3f}")
        if self.certified_factor is None:
            cert = f"certified: none, LB = {self.lower_bound:.1f} is not positive"
        else:
            cert = (f"certified: image ÷ LB ≤ {self.certified_factor:.4f} "
                    f"(LB = {self.lower_bound:.1f})")
        return head + "\n" + row + "\n" + cert

    def to_dict(self) -> dict:
        return {
            "schema": "denoise-report/2",
            "cost_full": self.full.total,
            "cost_image": self.image.total,
            "empirical_gap": self.empirical_gap,
            "lower_bound": self.lower_bound,
            "certified_factor": self.certified_factor,
        }


def pixel_gap_experiment(clean: np.ndarray,
                         noise: NoiseConfig) -> tuple[np.ndarray, DenoiseReport]:
    """Noise the image once, then denoise it once over each label space."""
    noisy = add_noise(clean, noise)
    return noisy, DenoiseReport(full=denoise_pixels(noisy, "full"),
                                image=denoise_pixels(noisy, "image"))


# ---------- patch-level denoising ----------


def _patch_stack(img: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """All 5x5 patches (stride 1) flattened to rows of 75 floats.

    Row layout is (dy, dx, channel); rows are ordered row-major over the
    patch grid.
    """
    win = np.lib.stride_tricks.sliding_window_view(img, (PATCH, PATCH), axis=(0, 1))
    ph, pw = win.shape[:2]
    rows = win.transpose(0, 1, 3, 4, 2).reshape(ph * pw, PATCH * PATCH * 3).astype(float)
    return rows, (ph, pw)


@dataclass(eq=False)
class PatchReport:
    nn_cost: float
    pw_cost: float
    total: float
    n_db: int
    n_query: int
    choice: np.ndarray          # each query's chosen row of the left-half patch stack

    def to_dict(self) -> dict:
        return {"schema": "patch-report/2", "nn_cost": self.nn_cost,
                "pw_cost": self.pw_cost, "total": self.total,
                "n_db": self.n_db, "n_query": self.n_query}


def denoise_patches(img: np.ndarray,
                    noise: NoiseConfig | None = None) -> tuple[np.ndarray, np.ndarray, PatchReport]:
    """Reconstruct a noisy right half from clean left-half patches.

    The noisy right-half patches are the queries of a Euclidean instance on
    their 4-connected patch grid, labeled by the distinct left-half patches
    through the pruning pipeline with ICM.  Pixels average over all covering
    chosen patches.  Returns (noisy, output, report); the report's costs are
    the instance's Euclidean objective, and its choice names the lowest
    left-half patch row equal to each chosen label.
    """
    a = np.asarray(img)
    if a.dtype != np.uint8 or a.ndim != 3 or a.shape[2] != 3:
        raise ValueError("expected a (h, w, 3) uint8 image")
    h, w = a.shape[:2]
    half = w // 2
    if half < PATCH or w - half < PATCH or h < PATCH:
        raise ValueError(f"image too small; both halves must fit a {PATCH}x{PATCH} patch")

    noise = noise or NoiseConfig()
    noisy = a.copy()
    noisy[:, half:] = add_noise(a[:, half:], noise)

    db, _ = _patch_stack(a[:, :half].copy())
    qs, (ph, pw) = _patch_stack(noisy[:, half:].copy())
    # flat regions repeat patches; labeling by distinct rows keeps stage 1 small
    labels, first, _ = unique_rows(db)
    inst = make_instance(EuclideanSpace(db.shape[1]), labels, qs, grid_graph(pw, ph))
    sol = inn_solve(inst, "icm")

    # paste: average every output pixel over the chosen patches covering it
    accum = np.zeros((h, w - half, 3))
    count = np.zeros((h, w - half, 1))
    tiles = sol.points.reshape(ph, pw, PATCH, PATCH, 3)
    for dy in range(PATCH):
        for dx in range(PATCH):
            accum[dy:dy + ph, dx:dx + pw] += tiles[:, :, dy, dx]
            count[dy:dy + ph, dx:dx + pw] += 1.0
    right = np.clip(np.floor(accum / count + 0.5), 0, 255).astype(np.uint8)
    out = a.copy()
    out[:, half:] = right
    report = PatchReport(nn_cost=sol.nn_cost, pw_cost=sol.pw_cost, total=sol.total,
                         n_db=len(db), n_query=len(qs), choice=first[sol.idx])
    return noisy, out, report
