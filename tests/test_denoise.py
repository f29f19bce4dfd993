from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import euclid
from snnkit.core import cost_points
from snnkit.denoise import (PATCH, NoiseConfig, _patch_stack, add_noise,
                            denoise_patches, denoise_pixels,
                            pixel_gap_experiment, pixel_instance)
from snnkit.generators import cartoon_fixture
from snnkit.metric import LatticeBox


def random_image(h, w, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(kind="speckle")
    with pytest.raises(ValueError):
        NoiseConfig(density=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(sigma=-1.0)


def test_salt_pepper_hits_expected_fraction():
    img = np.full((60, 60, 3), 128, dtype=np.uint8)
    noisy = add_noise(img, NoiseConfig(density=0.1, seed=1))
    changed = noisy != img
    rate = changed.mean()
    assert 0.07 < rate < 0.13
    assert set(np.unique(noisy[changed])) <= {0, 255}


def test_gaussian_noise_stays_in_range():
    img = np.full((20, 20, 3), 250, dtype=np.uint8)
    noisy = add_noise(img, NoiseConfig(kind="gaussian", sigma=30.0, seed=2))
    assert noisy.dtype == np.uint8
    assert noisy.min() >= 0 and noisy.max() <= 255
    assert (noisy != img).any()


def test_none_noise_is_identity():
    img = random_image(8, 8)
    assert (add_noise(img, NoiseConfig(kind="none")) == img).all()


def test_noise_is_seeded():
    img = random_image(16, 16)
    a = add_noise(img, NoiseConfig(seed=5))
    b = add_noise(img, NoiseConfig(seed=5))
    c = add_noise(img, NoiseConfig(seed=6))
    assert (a == b).all()
    assert (a != c).any()


def test_cartoon_fixture_shape_and_palette():
    img = cartoon_fixture(64, 64)
    assert img.shape == (64, 64, 3)
    assert img.dtype == np.uint8
    colors = np.unique(img.reshape(-1, 3), axis=0)
    assert 3 <= len(colors) <= 8


def test_pixel_instance_structure():
    img = random_image(4, 6)
    inst = pixel_instance(img, "full")
    assert inst.k == 24
    assert isinstance(inst.labels, LatticeBox)
    assert inst.graph.num_entries == 2 * 4 * 6 - 4 - 6
    pal = pixel_instance(img, "image")
    assert pal.has_explicit_labels
    assert len(pal.labels) == len(np.unique(img.reshape(-1, 3), axis=0))


def test_denoise_pixels_consistent_costs():
    img = add_noise(cartoon_fixture(12, 12), NoiseConfig(density=0.08, seed=3))
    for space in ("image", "full"):
        run = denoise_pixels(img, space)
        assert run.image.shape == img.shape
        assert run.image.dtype == np.uint8
        inst = pixel_instance(img, "full")
        again = cost_points(inst, run.image.reshape(-1, 3).astype(float))
        assert run.total == pytest.approx(again.total, abs=1e-6)
        assert run.total == pytest.approx(run.nn_cost + run.pw_cost, abs=1e-9)


def test_denoise_pixels_beats_identity_labeling():
    clean = cartoon_fixture(16, 16)
    noisy = add_noise(clean, NoiseConfig(density=0.1, seed=4))
    run = denoise_pixels(noisy, "image")
    inst = pixel_instance(noisy, "full")
    identity = cost_points(inst, noisy.reshape(-1, 3).astype(float))
    assert run.total <= identity.total + 1e-6


def test_cube_lower_bound_is_below_both_costs():
    noisy = add_noise(cartoon_fixture(16, 16), NoiseConfig(density=0.1, seed=6))
    full = denoise_pixels(noisy, "full")
    image = denoise_pixels(noisy, "image")
    assert image.lower_bound is None
    # the bound is on the cube optimum, which the palette cannot beat
    assert 0 < full.lower_bound <= full.total
    assert full.lower_bound <= image.total


def test_palette_icm_memory_stays_within_the_score_budget(cartoon):
    # 4,050 palette colours: pricing a whole colour class at once traced a
    # 197 MiB peak here, the chunked scorer about 38 MiB
    noisy = add_noise(cartoon, NoiseConfig(kind="gaussian", sigma=10.0, seed=42))
    tracemalloc.start()
    try:
        run = denoise_pixels(noisy, "image")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20
    assert run.total == pytest.approx(178441.3987297037, rel=1e-12)


def test_pixel_gap_experiment_report():
    clean = cartoon_fixture(10, 10)
    noisy, rep = pixel_gap_experiment(clean, NoiseConfig(density=0.05, seed=5))
    assert np.array_equal(noisy, add_noise(clean, NoiseConfig(density=0.05, seed=5)))
    assert (rep.full.label_space, rep.image.label_space) == ("full", "image")
    assert rep.lower_bound == rep.full.lower_bound
    assert 0 < rep.lower_bound <= rep.full.total
    assert rep.empirical_gap == rep.image.total / rep.full.total
    assert rep.certified_factor == rep.image.total / rep.lower_bound
    assert rep.certified_factor >= rep.empirical_gap
    d = rep.to_dict()
    assert d == {"schema": "denoise-report/2", "cost_full": rep.full.total,
                 "cost_image": rep.image.total, "empirical_gap": rep.empirical_gap,
                 "lower_bound": rep.lower_bound,
                 "certified_factor": rep.certified_factor}
    table = rep.table()
    assert "image" in table and "gap (est.)" in table
    assert f"{rep.full.total:.1f}" in table and f"{rep.image.total:.1f}" in table
    assert f"certified: image ÷ LB ≤ {rep.certified_factor:.4f}" in table


def test_report_certifies_nothing_without_a_positive_bound():
    # a flat image without noise costs nothing, so no factor can be certified
    _, rep = pixel_gap_experiment(np.full((4, 4, 3), 9, dtype=np.uint8),
                                  NoiseConfig(kind="none"))
    assert rep.full.total == rep.image.total == 0.0
    assert rep.lower_bound <= 0
    assert rep.certified_factor is None
    assert rep.to_dict()["certified_factor"] is None
    assert "certified: none" in rep.table()


def test_patch_stack_matches_naive():
    img = random_image(7, 9, seed=6)
    rows, (ph, pw) = _patch_stack(img)
    assert (ph, pw) == (3, 5)
    for py in range(ph):
        for px in range(pw):
            want = img[py:py + PATCH, px:px + PATCH].transpose(0, 1, 2)
            want = want.reshape(-1).astype(float)
            assert (rows[py * pw + px] == want).all()


def test_denoise_patches_reports_the_euclidean_objective_of_its_choice():
    img = random_image(10, 16, seed=8)
    # a left half of period 3 repeats its patches: 9 distinct among 24
    img[:, :8] = np.tile(random_image(3, 3, seed=5), (4, 3, 1))[:10, :8]
    noise = NoiseConfig(density=0.05, seed=9)
    noisy, out, rep = denoise_patches(img, noise)
    # independent recomputation with plain loops
    half = img.shape[1] // 2
    assert (noisy[:, :half] == img[:, :half]).all()
    db, _ = _patch_stack(img[:, :half])
    qs, (ph, pw) = _patch_stack(noisy[:, half:])
    db, qs = db.tolist(), qs.tolist()
    pairs = [(n, n + 1) for n in range(ph * pw) if (n + 1) % pw]
    pairs += [(n, n + pw) for n in range(ph * pw - pw)]

    def objective(rows):
        nn = sum(euclid(db[c], q) for c, q in zip(rows, qs))
        return nn, sum(euclid(db[rows[n]], db[rows[m]]) for n, m in pairs)

    # each query's nearest patch, the lowest row among equals
    nearest = [min(range(len(db)), key=lambda t: (euclid(db[t], q), t)) for q in qs]
    pruned = {tuple(db[t]) for t in nearest}
    choice = rep.choice.tolist()
    assert len(choice) == len(qs)
    for c in choice:
        assert tuple(db[c]) in pruned
        assert db.index(db[c]) == c
    nn, pw_cost = objective(choice)
    assert rep.nn_cost == pytest.approx(nn, rel=1e-9)
    assert rep.pw_cost == pytest.approx(pw_cost, rel=1e-9)
    assert rep.total == pytest.approx(nn + pw_cost, rel=1e-9)
    assert rep.total <= sum(objective(nearest)) + 1e-9
    assert rep.n_db == len(db) and rep.n_query == len(qs)
    assert out.shape == img.shape and out.dtype == np.uint8
    assert (out[:, :half] == img[:, :half]).all()


def test_denoise_patches_rejects_tiny_images():
    with pytest.raises(ValueError):
        denoise_patches(random_image(4, 20))
    with pytest.raises(ValueError):
        denoise_patches(random_image(20, 8))
