"""Command-line front end.

Subcommands: solve, oracle, gap, rplus, lowerbound, denoise,
denoise-patches.  IO and validation failures exit with status 2, exceeded
enumeration guards and branch-and-bound node budgets with status 3.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import io as sio
from .core import GuardExceededError, PruningReport, brute_force_opt
from .denoise import (NoiseConfig, add_noise, denoise_patches, denoise_pixels,
                      pixel_gap_experiment)
from .exact import NodeBudgetExceeded, bb_opt
from .generators import cartoon_fixture
from .graphs import orient_edges
from .inn import KINDS, inn_solve, pruned_label_set
from .lowerbound import (LowerBoundParams, attachment_cost,
                         build_lower_bound_instance, default_multiplicity)
from .ppm import PpmFormatError, load_ppm, save_ppm
from .sparse import rplus_solve

DEFAULT_SEED = 42
# branch-and-bound budget of each exact optimum in `gap` and `lowerbound`
_NODE_BUDGET = 2_000_000


def _write_or_print(doc: dict, out: str | None):
    if out:
        sio.save_json(out, doc)
        print(f"wrote {out}")
    else:
        json.dump(doc, sys.stdout, indent=2)
        print()


def cmd_solve(args) -> int:
    inst = sio.load_instance(args.instance)
    a = inn_solve(inst, args.stage2)
    pl = pruned_label_set(inst)
    print(f"pruned labels: {len(pl.label_points)} of {inst.n_labels}")
    print(f"nn={a.nn_cost:.6f} pw={a.pw_cost:.6f} total={a.total:.6f}")
    _write_or_print(sio.assignment_to_dict(a, {"stage2": args.stage2}), args.out)
    return 0


def cmd_oracle(args) -> int:
    inst = sio.load_instance(args.instance)
    a = brute_force_opt(inst)
    print(f"optimum total={a.total:.6f} (nn={a.nn_cost:.6f} pw={a.pw_cost:.6f})")
    _write_or_print(sio.assignment_to_dict(a, {"solver": "brute-force"}), args.out)
    return 0


def _exact_gap(inst) -> PruningReport:
    """The pruning gap from two branch-and-bound optima under _NODE_BUDGET:
    over all labels, and over the nearest-label survivors."""
    full = bb_opt(inst, node_budget=_NODE_BUDGET).total
    pruned = pruned_label_set(inst).label_idx
    return PruningReport.of(full, bb_opt(inst, pruned, _NODE_BUDGET).total, pruned)


def cmd_gap(args) -> int:
    inst = sio.load_instance(args.instance)
    rep = _exact_gap(inst)
    print(f"opt_full={rep.opt_full:.6f} opt_pruned={rep.opt_pruned:.6f} "
          f"alpha={rep.alpha:.6f}")
    doc = {
        "schema": sio.GAP_SCHEMA,
        "opt_full": rep.opt_full,
        "opt_pruned": rep.opt_pruned,
        "alpha": rep.alpha,
        "pruned_label_ids": rep.pruned_labels.tolist(),
    }
    _write_or_print(doc, args.out)
    return 0


def cmd_rplus(args) -> int:
    inst = sio.load_instance(args.instance)
    orient = orient_edges(inst.graph)
    a = rplus_solve(inst, orient)
    print(f"r={orient.r} bound_factor={2 * orient.r + 1}")
    print(f"nn={a.nn_cost:.6f} pw={a.pw_cost:.6f} total={a.total:.6f}")
    _write_or_print(sio.assignment_to_dict(a, {"solver": "rplus", "r": orient.r}),
                    args.out)
    return 0


def cmd_lowerbound(args) -> int:
    mult = args.mult if args.mult else default_multiplicity(args.k)
    params = LowerBoundParams(k=args.k, d=args.d, multiplicity=mult, seed=args.seed)
    inst = build_lower_bound_instance(params)
    print(f"k={params.k} d={params.d} multiplicity={mult} "
          f"|P|={inst.n_labels} |Q|={inst.k} "
          f"edge_instances={inst.graph.num_instances}")
    print(f"attachment labeling cost: {attachment_cost(params):.1f}")
    if params.k <= 8:
        rep = _exact_gap(inst)
        print(f"exact alpha: {rep.alpha:.6f} "
              f"(opt {rep.opt_full:.1f} -> pruned {rep.opt_pruned:.1f})")
    if args.out:
        sio.save_instance(args.out, inst)
        print(f"wrote {args.out}")
    return 0


def _noise_from_args(args) -> NoiseConfig:
    return NoiseConfig(kind=args.noise, density=args.density,
                       sigma=args.sigma, seed=args.noise_seed)


def cmd_denoise(args) -> int:
    img = cartoon_fixture() if args.image == "fixture" else load_ppm(args.image)
    noise = _noise_from_args(args)
    prefix = args.out_prefix
    if args.space == "both":
        noisy, rep = pixel_gap_experiment(img, noise)
        print(rep.table(args.image))
        if prefix:
            save_ppm(f"{prefix}-noisy.ppm", noisy)
            for run in (rep.full, rep.image):
                save_ppm(f"{prefix}-{run.label_space}.ppm", run.image)
            sio.save_json(f"{prefix}-report.json", rep.to_dict())
            print(f"wrote {prefix}-*.ppm and {prefix}-report.json")
        return 0
    noisy = add_noise(img, noise)
    run = denoise_pixels(noisy, args.space)
    print(f"label_space={run.label_space} nn={run.nn_cost:.1f} "
          f"pw={run.pw_cost:.1f} total={run.total:.1f}")
    if run.lower_bound is not None:
        print(f"certified lower bound on the cube optimum: {run.lower_bound:.1f}")
    if prefix:
        save_ppm(f"{prefix}-noisy.ppm", noisy)
        save_ppm(f"{prefix}-denoised.ppm", run.image)
        print(f"wrote {prefix}-noisy.ppm and {prefix}-denoised.ppm")
    return 0


def cmd_denoise_patches(args) -> int:
    img = cartoon_fixture() if args.image == "fixture" else load_ppm(args.image)
    noise = _noise_from_args(args)
    noisy, out, rep = denoise_patches(img, noise)
    print(f"db_patches={rep.n_db} query_patches={rep.n_query}")
    print(f"nn={rep.nn_cost:.1f} pw={rep.pw_cost:.1f} total={rep.total:.1f}")
    if args.out_prefix:
        save_ppm(f"{args.out_prefix}-noisy.ppm", noisy)
        save_ppm(f"{args.out_prefix}-patched.ppm", out)
        sio.save_json(f"{args.out_prefix}-report.json", rep.to_dict())
        print(f"wrote {args.out_prefix}-*.ppm and {args.out_prefix}-report.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("-o", "--out", default=None, help="output JSON path")

    sp = sub.add_parser("solve", help="prune then solve an instance file")
    sp.add_argument("instance")
    sp.add_argument("--stage2", choices=KINDS, default="auto")
    add_out(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="exact optimum by enumeration")
    sp.add_argument("instance")
    add_out(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gap", help="exact pruning gap of an instance file, by branch and bound")
    sp.add_argument("instance")
    add_out(sp)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("rplus", help="orientation-based aggregate-NN solver")
    sp.add_argument("instance")
    add_out(sp)
    sp.set_defaults(func=cmd_rplus)

    sp = sub.add_parser("lowerbound", help="emit a hard pruning instance")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--mult", type=int, default=0,
                    help="edge multiplicity; 0 picks ceil(sqrt(log2 k))")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(sp)
    sp.set_defaults(func=cmd_lowerbound)

    def add_noise_args(sp):
        sp.add_argument("--noise", choices=["salt-pepper", "gaussian", "none"],
                        default="salt-pepper")
        sp.add_argument("--density", type=float, default=0.05)
        sp.add_argument("--sigma", type=float, default=10.0)
        sp.add_argument("--noise-seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("denoise", help="grid-labeling denoiser")
    sp.add_argument("image", help="PPM path, or 'fixture' for the built-in cartoon")
    sp.add_argument("--space", choices=["image", "full", "both"], default="image",
                    help="'both' compares the two label spaces")
    add_noise_args(sp)
    sp.add_argument("--out-prefix", default=None)
    sp.set_defaults(func=cmd_denoise)

    sp = sub.add_parser("denoise-patches", help="patch-database denoiser")
    sp.add_argument("image", help="PPM path, or 'fixture' for the built-in cartoon")
    add_noise_args(sp)
    sp.add_argument("--out-prefix", default=None)
    sp.set_defaults(func=cmd_denoise_patches)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GuardExceededError, NodeBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PpmFormatError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
