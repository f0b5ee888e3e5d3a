"""Command-line front end.

Subcommands mirror the pipeline stages and hand artifacts to each other on
disk: build | validate | enumerate | limitset | bend | alexander | report.
`report` runs the whole pipeline into an output directory and writes a
summary with one pass/fail line per check; its exit status is nonzero iff
any check fails.  All outputs are byte-deterministic for a fixed config and
seed: files use sorted keys, shortest-roundtrip float formatting, LF line
endings, and no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import alexander as ax
from . import bending as bd
from . import complexes as cx
from . import groups as gr
from . import limitset as ls
from . import presets
from .cover import build_cover, closed_form_parameters, validate_cover


@dataclasses.dataclass
class RunConfig:
    preset: str = "spun-trefoil"
    complex_path: str | None = None
    refinement: int = 0
    max_word_length: int = 5
    eps: float = 0.12
    n_stages: int = 4
    bend_amalgam: int | None = None  # None = first suitable straight amalgam
    bend_ts: tuple = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    out_dir: str = "out"
    seed: int = 0
    samples_per_face: int = 200
    domain_budget: int = 100_000
    relation_tol: float = 1e-8

    def validate(self):
        if self.refinement < 0:
            raise ValueError("refinement must be >= 0")
        if self.max_word_length < 0:
            raise ValueError("word-length cap must be >= 0")
        if self.eps <= 0 or self.n_stages < 0 or self.samples_per_face <= 0:
            raise ValueError("caps must be positive")
        if not 0 < self.relation_tol <= 1e-6:
            raise ValueError("tolerance outside the safe range (0, 1e-6]")
        return self


def _load_complex(cfg):
    if cfg.complex_path:
        return cx.load_complex(cfg.complex_path)
    return presets.preset_complex(cfg.preset)


def _json_dump(obj, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, frozenset):
        return sorted(o)
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build(args):
    cfg = _config_from_args(args)
    c = _load_complex(cfg)
    issues = cx.validate_complex(c)
    if issues:
        for issue in issues:
            print(f"FAIL complex: {issue}")
        return 1
    surf = cx.knot_surface(c)
    cover = build_cover(c, k=cfg.refinement)
    os.makedirs(cfg.out_dir, exist_ok=True)
    cx.save_complex(c, os.path.join(cfg.out_dir, "complex.txt"))
    _write_cover(cover, os.path.join(cfg.out_dir, "cover.txt"))
    print(f"complex: {len(c.all_cubes)} cubes, surface faces={len(surf.faces)}, "
          f"chi={surf.euler_characteristic}")
    print(f"cover: {len(cover)} balls {cover.role_counts()} (k={cfg.refinement})")
    print(f"wrote {cfg.out_dir}/complex.txt and {cfg.out_dir}/cover.txt")
    return 0


def _write_cover(cover, path):
    lines = ["# ball x1 x2 x3 x4 radius role host"]
    roles = {0: "vertex", 1: "face", 2: "junction"}
    for i in range(len(cover)):
        lines.append(
            " ".join(
                [str(i)]
                + [_fmt(v) for v in cover.centers[i]]
                + [_fmt(cover.radii[i]), roles[int(cover.roles[i])], str(int(cover.host[i]))]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_validate(args):
    cfg = _config_from_args(args)
    c = _load_complex(cfg)
    issues = cx.validate_complex(c)
    if issues:
        for issue in issues:
            print(f"FAIL complex: {issue}")
        return 1
    surf = cx.knot_surface(c)
    cover = build_cover(c, k=cfg.refinement)
    report = validate_cover(
        cover, surf, n_samples=cfg.samples_per_face, seed=cfg.seed
    )
    p = closed_form_parameters(float(c.unit))
    print("closed-form parameters (tolerance 1e-9):")
    for name, val in sorted(p.items()):
        print(f"  {name} = {_fmt(val)}")
    print("angle residual table (cos targets 0, +1/2, -1/2; tolerance "
          f"{report['tolerance']}):")
    print(f"  intersecting pairs : {report['n_intersecting_pairs']}")
    print(f"  max cos residual   : {report['max_angle_residual']:.3e}")
    print(f"  adjacency residual : {report['adjacency_residual']:.3e}")
    print(f"  illegal pairs      : {len(report['illegal_pairs'])}")
    print(f"coverage fraction    : {report['coverage_fraction']} "
          f"({report['n_samples_per_face']} samples/face, seed {cfg.seed})")
    status = "PASS" if report["ok"] else "FAIL"
    print(f"{status} cover validation")
    return 0 if report["ok"] else 1


def _subassembly_for(cfg, cover, group, amalgam, schottky):
    if amalgam is not None:
        return gr.subassembly(cover, group.amalgams[amalgam].ball_ids)
    return gr.pairwise_disjoint_subassembly(cover, n=schottky)


def cmd_enumerate(args):
    cfg = _config_from_args(args)
    c = _load_complex(cfg)
    cover = build_cover(c, k=cfg.refinement)
    group = gr.assemble_group(c, cover)
    sub = _subassembly_for(cfg, cover, group, args.amalgam, args.schottky)
    table = gr.enumerate_words(sub, cfg.max_word_length)
    orbit = gr.orbit_spheres(sub, cfg.max_word_length)
    print(f"sub-assembly: balls {sub.ball_ids}")
    print(f"words <= {cfg.max_word_length}: {len(table.words)} classes "
          f"(raw {table.n_raw}, merged {table.n_merged}, pruned {table.n_pruned}, "
          f"truncated {table.truncated})")
    print(f"orbit spheres: {len(orbit.radii)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "orbit.txt")
    _write_orbit(orbit, sub, path)
    print(f"wrote {path}")
    return 0


def _write_orbit(orbit, sub, path):
    lines = ["# seq word seed x1 x2 x3 x4 radius parent generation"]
    for i in range(len(orbit.radii)):
        word = ",".join(map(str, orbit.words[i])) or "-"
        center = orbit.centers[i] + sub.offset
        lines.append(
            " ".join(
                [str(int(orbit.seq[i])), word, str(int(orbit.seed[i]))]
                + [_fmt(v) for v in center]
                + [_fmt(orbit.radii[i]), str(int(orbit.parent[i])),
                   str(int(orbit.generation[i]))]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_limitset(args):
    cfg = _config_from_args(args)
    c = _load_complex(cfg)
    cover = build_cover(c, k=cfg.refinement)
    group = gr.assemble_group(c, cover)
    sub = _subassembly_for(cfg, cover, group, args.amalgam, args.schottky)
    orbit = gr.orbit_spheres(sub, cfg.max_word_length)
    cloud = ls.cloud_from_orbit(orbit, cfg.eps, offset=sub.offset)
    if cloud.notice:
        print(f"notice: {cloud.notice}")
    print(f"cloud: {len(cloud)} points (eps={cfg.eps}, L={cfg.max_word_length})")
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []
    for fmt in args.formats.split(","):
        fmt = fmt.strip()
        target = os.path.join(cfg.out_dir, f"cloud.{fmt}")
        ls.export_cloud(cloud, fmt, target)
        written.append(target)
    if args.slice is not None:
        axis, value = args.slice
        sl = ls.slice_cloud(cloud, int(axis), float(value), args.slice_thickness)
        if sl.notice:
            print(f"notice: {sl.notice}")
        target = os.path.join(cfg.out_dir, "slice.ply")
        ls.export_cloud(sl, "ply", target)
        written.append(target)
    for w in written:
        print(f"wrote {w}")
    return 0


def cmd_bend(args):
    cfg = _config_from_args(args)
    c = _load_complex(cfg)
    cover = build_cover(c, k=cfg.refinement)
    group = gr.assemble_group(c, cover)
    j = cfg.bend_amalgam
    if j is None:
        straight = [
            i for i in bd.suitable_amalgams(group) if group.amalgams[i].straight
        ]
        if not straight:
            print("FAIL no suitable straight amalgam")
            return 1
        j = straight[len(straight) // 2]
    locus = bd.bending_locus(group, j)
    print(f"amalgam {j}: locus center {[_fmt(v) for v in locus.center]}, "
          f"radius {_fmt(locus.radius)} (target edge/sqrt(6) = "
          f"{_fmt(float(c.unit) / 6 ** 0.5)})")
    word = bd.crossing_word(group, j)
    rows = []
    ok = True
    for t in cfg.bend_ts:
        try:
            rep = bd.bend(group, j, float(t), tol=cfg.relation_tol)
        except gr.GroupError as exc:
            print(f"FAIL t={t}: {exc}")
            ok = False
            continue
        lam = bd.lambda_max(rep.word_matrix(word))
        rows.append(
            {
                "t": float(t),
                "max_relation_residual": rep.relation_report["max_residual"],
                "commutation_residual": rep.relation_report["commutation_residual"],
                "lambda_max": lam,
            }
        )
        print(f"t={t:5.2f}  relation residual {rows[-1]['max_relation_residual']:.3e}  "
              f"commutation {rows[-1]['commutation_residual']:.3e}  "
              f"lambda_max {lam:.10f}")
    if rows:
        spread = max(r["lambda_max"] for r in rows) - min(r["lambda_max"] for r in rows)
        print(f"crossing word {word}: lambda_max spread {spread:.6e}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "bending.json")
    _json_dump({"amalgam": j, "crossing_word": list(word), "rows": rows}, path)
    print(f"wrote {path}")
    return 0 if ok else 1


def cmd_alexander(args):
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            pres = ax.parse_presentation(fh.read())
    else:
        pres = ax.PRESETS[args.knot_preset]
    delta = ax.alexander_polynomial(pres)
    verdict = ax.nontriviality_verdict(delta, depth=args.depth)
    print(str(delta))
    print(f"verdict: {verdict['verdict']} (Delta(1) = {verdict['delta_at_1']})")
    if args.verbose:
        for s in verdict["stages"]:
            print(f"  stage {s['stage']}: {s['copies']} copies, degree "
                  f"{s['degree']}: {s['polynomial']}")
        for fact in verdict["assumed_facts"]:
            print(f"  {fact}")
    return 0


def cmd_report(args):
    cfg = _config_from_args(args)
    checks, bundle_dir = run_pipeline(cfg)
    failed = [name for name, (ok, _msg) in checks.items() if not ok]
    print(f"bundle written to {bundle_dir}")
    return 1 if failed else 0


def run_pipeline(cfg):
    """Full pipeline into cfg.out_dir; returns (checks, out_dir).

    checks maps check name -> (ok, message); the summary file contains one
    pass/fail line per check plus the echoed config.
    """
    cfg.validate()
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    checks = {}

    _json_dump(dataclasses.asdict(cfg), os.path.join(out, "config.json"))

    # 1. build + complex validation
    c = _load_complex(cfg)
    issues = cx.validate_complex(c)
    checks["complex"] = (not issues, "; ".join(issues) or "complex valid")
    cx.save_complex(c, os.path.join(out, "complex.txt"))
    if issues:
        _write_summary(cfg, checks, out)
        return checks, out
    surf = cx.knot_surface(c)

    # 2. cover validation
    cover = build_cover(c, k=cfg.refinement)
    _write_cover(cover, os.path.join(out, "cover.txt"))
    cover_report = validate_cover(
        cover, surf, n_samples=cfg.samples_per_face, seed=cfg.seed
    )
    _json_dump(cover_report, os.path.join(out, "cover_report.json"))
    checks["cover"] = (
        cover_report["ok"],
        f"max angle residual {cover_report['max_angle_residual']:.3e} "
        f"(tol {cover_report['tolerance']}), coverage "
        f"{cover_report['coverage_fraction']}",
    )

    # 3. group relations
    group = gr.assemble_group(c, cover)
    try:
        rel_report = gr.relation_suite(group, tol=cfg.relation_tol)
        checks["relations"] = (
            True,
            f"{rel_report['n_relations']} relations, max residual "
            f"{rel_report['max_residual']:.3e} (tol {cfg.relation_tol}), "
            f"premature gap {rel_report['min_premature_gap']:.3f} (> 0.5)",
        )
    except gr.GroupError as exc:
        rel_report = {"ok": False, "error": str(exc)}
        checks["relations"] = (False, str(exc))
    _json_dump(rel_report, os.path.join(out, "relations.json"))

    # 4. words, faithfulness, orbit, stages (Schottky sub-assembly)
    sub = gr.pairwise_disjoint_subassembly(cover, n=4)
    faith = gr.faithfulness_scan(sub, cfg.max_word_length)
    _json_dump(faith, os.path.join(out, "faithfulness.json"))
    checks["faithfulness"] = (
        faith["ok"],
        f"{faith['n_classes']} classes at L={cfg.max_word_length}, min gap "
        f"{faith['min_gap']:.4f} (> 0.1)",
    )

    orbit = gr.orbit_spheres(sub, cfg.max_word_length)
    _write_orbit(orbit, sub, os.path.join(out, "orbit.txt"))
    deeper = orbit.generation >= 1
    nesting_ok = bool((orbit.parent[deeper] >= 0).all()) and not orbit.truncated
    decay = gr.max_radius_per_generation(orbit)
    gens = sorted(decay)
    decay_ok = all(decay[a] >= decay[b] for a, b in zip(gens, gens[1:]))
    checks["orbit_nesting"] = (
        nesting_ok and decay_ok,
        f"{len(orbit.radii)} spheres, parents assigned, max radius by "
        f"generation {[round(decay[g], 6) for g in gens]}",
    )

    stages = gr.polyhedron_stages(sub, orbit, cfg.n_stages)
    stage_rows = ls.stage_report(stages)
    _json_dump(stage_rows, os.path.join(out, "stages.json"))
    checks["stages"] = (
        len(stages) == cfg.n_stages + 1,
        f"side counts {[s.n_sides for s in stages]}",
    )

    # 5. limit-set clouds
    cloud = ls.cloud_from_orbit(orbit, cfg.eps, offset=sub.offset)
    ls.export_cloud(cloud, "csv", os.path.join(out, "cloud.csv"))
    ls.export_cloud(cloud, "json", os.path.join(out, "cloud.json"))
    lox, skipped = ls.loxodromic_points(sub, 50, seed=cfg.seed)
    gen1 = orbit.generation == 1
    lox_ok = (
        len(lox) == 50
        and ls.containment_fraction(
            lox, orbit.centers[gen1] + sub.offset, orbit.radii[gen1], slack=1e-9
        )
        == 1.0
    )
    ls.export_cloud(lox, "csv", os.path.join(out, "loxodromic.csv"))
    checks["limitset"] = (
        len(cloud) > 0 and lox_ok,
        f"{len(cloud)} cloud points (eps {cfg.eps}), 50 loxodromic fixed "
        f"points inside generation-1 spheres ({skipped} non-loxodromic skipped)",
    )

    # 6. fundamental domain
    dom = gr.fundamental_domain_check(cover, budget=cfg.domain_budget, seed=cfg.seed)
    _json_dump(dom, os.path.join(out, "domain.json"))
    checks["fundamental_domain"] = (
        dom["ok"],
        f"{dom['checks']} generator-point checks, {dom['violations']} violations",
    )

    # 7. bending
    j = cfg.bend_amalgam
    if j is None:
        straight = [
            i for i in bd.suitable_amalgams(group) if group.amalgams[i].straight
        ]
        j = straight[len(straight) // 2] if straight else None
    if j is None:
        checks["bending"] = (False, "no suitable amalgam")
    else:
        word = bd.crossing_word(group, j)
        rows = []
        bend_ok = True
        try:
            for t in cfg.bend_ts:
                rep = bd.bend(group, j, float(t), tol=cfg.relation_tol)
                rows.append(
                    {
                        "t": float(t),
                        "max_relation_residual": rep.relation_report["max_residual"],
                        "commutation_residual": rep.relation_report[
                            "commutation_residual"
                        ],
                        "lambda_max": bd.lambda_max(rep.word_matrix(word)),
                    }
                )
        except gr.GroupError as exc:
            bend_ok = False
            rows.append({"error": str(exc)})
        lams = [r["lambda_max"] for r in rows if "lambda_max" in r]
        spread = max(lams) - min(lams) if lams else 0.0
        bend_ok = bend_ok and spread > 1e-4
        _json_dump(
            {"amalgam": j, "crossing_word": list(word), "rows": rows},
            os.path.join(out, "bending.json"),
        )
        checks["bending"] = (
            bend_ok,
            f"amalgam {j}, lambda_max spread {spread:.6e} over t in "
            f"{list(cfg.bend_ts)} (> 1e-4)",
        )

    # 8. invariants
    inv_rows = {}
    inv_ok = True
    for name in sorted(ax.PRESETS):
        delta = ax.alexander_polynomial(ax.PRESETS[name])
        verdict = ax.nontriviality_verdict(delta, depth=3)
        inv_rows[name] = {
            "polynomial": str(delta),
            "verdict": verdict["verdict"],
            "delta_at_1": verdict["delta_at_1"],
        }
        inv_ok = inv_ok and verdict["delta_at_1"] in (1, -1)
    inv_ok = (
        inv_ok
        and inv_rows["trefoil"]["polynomial"] == "t^2 - t + 1"
        and inv_rows["unknot"]["verdict"] == "TRIVIAL"
        and inv_rows["spun-trefoil"]["verdict"] == "NONTRIVIAL"
    )
    _json_dump(inv_rows, os.path.join(out, "alexander.json"))
    checks["invariants"] = (
        inv_ok,
        f"spun-trefoil polynomial {inv_rows['spun-trefoil']['polynomial']}, "
        f"verdict {inv_rows['spun-trefoil']['verdict']}",
    )

    _write_summary(cfg, checks, out)
    return checks, out


def _write_summary(cfg, checks, out):
    lines = ["# pipeline summary", "", "## config"]
    for key, val in sorted(dataclasses.asdict(cfg).items()):
        lines.append(f"{key} = {val!r}")
    lines += ["", "## checks"]
    for name, (ok, msg) in checks.items():
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: {msg}")
        print(f"{status} {name}: {msg}")
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("--preset", default="spun-trefoil",
                   help="bundled complex name (default: spun-trefoil)")
    p.add_argument("--complex", dest="complex_path", default=None,
                   help="path to a complex file (overrides --preset)")
    p.add_argument("-k", "--refinement", type=int, default=0,
                   help="junction annulus refinement level")
    p.add_argument("-L", "--max-len", type=int, default=5, dest="max_word_length")
    p.add_argument("--eps", type=float, default=0.12,
                   help="radius cutoff for limit-set clouds")
    p.add_argument("--stages", type=int, default=4, dest="n_stages")
    p.add_argument("--out", default=os.environ.get("WILDKNOT_OUT", "out"),
                   dest="out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples-per-face", type=int, default=200)
    p.add_argument("--domain-budget", type=int, default=100_000)
    p.add_argument("--relation-tol", type=float, default=1e-8)
    p.add_argument("--bend-amalgam", type=int, default=None)
    p.add_argument("--bend-ts", default="0,0.05,0.1,0.15,0.2,0.25,0.3",
                   help="comma-separated bending angles")


def _add_subassembly(p):
    p.add_argument("--amalgam", type=int, default=None,
                   help="use the 4 generators of this amalgam")
    p.add_argument("--schottky", type=int, default=4,
                   help="number of pairwise disjoint generators (default)")


def _config_from_args(args):
    return RunConfig(
        preset=args.preset,
        complex_path=args.complex_path,
        refinement=args.refinement,
        max_word_length=args.max_word_length,
        eps=args.eps,
        n_stages=args.n_stages,
        bend_amalgam=args.bend_amalgam,
        bend_ts=tuple(float(t) for t in args.bend_ts.split(",")),
        out_dir=args.out_dir,
        seed=args.seed,
        samples_per_face=args.samples_per_face,
        domain_budget=args.domain_budget,
        relation_tol=args.relation_tol,
    ).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wildknot",
        description="Build and explore reflection-group ball covers whose "
        "limit set is a wild 2-knot.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct the complex and ball cover")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("validate", help="validate complex, angles, coverage")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("enumerate", help="enumerate words and orbit spheres")
    _add_common(p)
    _add_subassembly(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("limitset", help="limit-set point clouds and exports")
    _add_common(p)
    _add_subassembly(p)
    p.add_argument("--formats", default="csv,json")
    p.add_argument("--slice", nargs=2, metavar=("AXIS", "VALUE"), default=None)
    p.add_argument("--slice-thickness", type=float, default=0.5)
    p.set_defaults(func=cmd_limitset)

    p = subs.add_parser("bend", help="bending deformation sweep at an amalgam")
    _add_common(p)
    p.set_defaults(func=cmd_bend)

    p = subs.add_parser("alexander", help="Alexander polynomial tools")
    p.add_argument("--preset", dest="knot_preset", default="trefoil",
                   choices=sorted(ax.PRESETS))
    p.add_argument("--file", default=None,
                   help="presentation file instead of a preset")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = subs.add_parser("report", help="full pipeline with pass/fail summary")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cx.ComplexError as exc:
        for issue in exc.issues:
            print(f"FAIL complex: {issue}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
