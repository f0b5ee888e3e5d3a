"""Command-line front end.

The pipeline is STAGES, one ordered list of (check name, fn(run) -> (ok,
message)) stages, each writing its own files; a Run builds each artifact
once, on first use, and its complex keeps the one knot surface.  `report`
runs every stage and writes a summary with one pass/fail line per check;
its exit status is nonzero iff any check fails.  The other subcommands run
the stages and artifacts they need.  All outputs are byte-deterministic for
a fixed config and seed: sorted keys, shortest-roundtrip floats, LF line
endings, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .cover import ROLE_NAMES, CoverError, build_cover, closed_form_parameters, validate_cover

# What malformed input raises inside the pipeline; reported as FAIL lines.
INPUT_ERRORS = (cx.ComplexError, CoverError, gr.GroupError)


@dataclasses.dataclass
class RunConfig:
    preset: str = "spun-trefoil"
    complex_path: str | None = None
    max_word_length: int = 5
    eps: float = 0.12  # limit-set cloud radius cutoff, in tube units
    n_stages: int = 4
    bend_amalgam: int | None = None  # None = middle suitable straight amalgam
    bend_ts: tuple = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    out_dir: str = "out"
    seed: int = 0
    samples_per_face: int = 200
    domain_budget: int = 100_000
    relation_tol: float = 1e-8

    def validate(self):
        if self.max_word_length < 0:
            raise ValueError("word-length cap must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if (not self.eps > 0 or self.n_stages < 0 or self.samples_per_face <= 0
                or self.domain_budget < 1):
            raise ValueError("caps must be positive")
        if not np.isfinite(self.bend_ts).all():
            raise ValueError("bending angles must be finite")
        if not 0 < self.relation_tol <= 1e-6:
            raise ValueError("tolerance outside the safe range (0, 1e-6]")
        return self


class Run:
    """One pipeline run; each artifact is computed on first use and kept.

    The sub-assembly is amalgam `amalgam`'s balls, else `schottky` disjoint
    ones.  The output directory is made when the run starts; an `out_dir`
    that cannot be a directory raises OSError there.
    """

    def __init__(self, cfg, amalgam=None, schottky=4):
        self.cfg = cfg
        self.amalgam = amalgam
        self.schottky = schottky
        os.makedirs(cfg.out_dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.cfg.out_dir, name)

    @functools.cached_property
    def complex(self):
        if self.cfg.complex_path:
            try:
                with open(self.cfg.complex_path, encoding="utf-8") as fh:
                    return cx.loads_complex(fh.read())
            except (OSError, UnicodeDecodeError) as exc:
                raise cx.ComplexError([f"cannot read the complex file: {exc}"]) from None
        return presets.preset_complex(self.cfg.preset)

    @functools.cached_property
    def surface(self):
        issues = cx.validate_complex(self.complex)
        if issues:
            raise cx.ComplexError(issues)
        return cx.knot_surface(self.complex)

    @functools.cached_property
    def cover(self):
        self.surface  # the complex's checks first: ComplexError lists its issues
        return build_cover(self.complex)

    @functools.cached_property
    def cover_report(self):
        return validate_cover(self.cover, self.surface,
                              n_samples=self.cfg.samples_per_face, seed=self.cfg.seed)

    @functools.cached_property
    def group(self):
        return gr.assemble_group(self.complex, self.cover)

    @functools.cached_property
    def sub(self):
        if self.amalgam is None:
            return gr.pairwise_disjoint_subassembly(self.cover, n=self.schottky)
        return gr.subassembly(self.cover, self.group.amalgam(self.amalgam).ball_ids)

    @functools.cached_property
    def orbit(self):
        return gr.orbit_spheres(self.sub, self.cfg.max_word_length)

    @functools.cached_property
    def cloud(self):
        return ls.cloud_from_orbit(self.orbit, self.cfg.eps * self.cover.unit,
                                   offset=self.sub.offset)

    @functools.cached_property
    def bending(self):
        """bending.json: the crossing relations' max_product_shift over all t and
        a row {t, lambda_max} per angle; a refused amalgam gets only its error row."""
        group, j = self.group, self.cfg.bend_amalgam
        if j is None:
            straight = [i for i in bd.suitable_amalgams(group) if group.amalgams[i].straight]
            if not straight:
                raise gr.GroupError("no suitable straight amalgam")
            j = straight[len(straight) // 2]
        word = bd.crossing_word(group, j)  # raises unless amalgam j exists
        shift = float(bd.crossing_relations(group, j)[1].max(initial=0.0))
        try:
            rows = bd.bend(group, j, self.cfg.bend_ts, word, tol=self.cfg.relation_tol)
        except gr.GroupError as exc:
            rows = [{"error": str(exc)}]
        return {"amalgam": j, "crossing_word": list(word), "max_product_shift": shift, "rows": rows}


def _json_dump(obj, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x):
    return repr(float(x))


def _write_cover(cover, path):
    """One row per ball, joined from string columns.  Each float column
    formats its distinct floats once, by repr as in _fmt, and its rows reuse
    that text."""
    roles = np.array([ROLE_NAMES[code] for code in range(len(ROLE_NAMES))], dtype=object)
    columns = ls._float_columns(np.column_stack([cover.centers, cover.radii]))
    lines = ["# ball x1 x2 x3 x4 radius role host"]
    lines += map(" ".join, zip(map(str, range(len(cover))), *columns,
                               roles[cover.roles].tolist(), map(str, cover.host.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_orbit(orbit, sub, path):
    """One row per orbit sphere, centers in the complex's coordinates; floats
    as in _write_cover."""
    columns = ls._float_columns(np.column_stack([orbit.centers + sub.offset, orbit.radii]))
    lines = ["# seq word seed x1 x2 x3 x4 radius parent generation"]
    lines += ["%d %s %d %s %s %s %s %s %d %d" % row for row in
              zip(range(len(orbit.radii)), [",".join(map(str, w)) or "-" for w in orbit.words],
                  orbit.seed.tolist(), *columns, orbit.parent.tolist(), orbit.generation.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _export_clouds(run, formats):
    """Write the limit-set cloud once per format; returns the paths."""
    paths = [run.path(f"cloud.{fmt}") for fmt in formats]
    for fmt, path in zip(formats, paths):
        ls.export_cloud(run.cloud, fmt, path)
    return paths


# ---------------------------------------------------------------------------
# Stages: fn(run) -> (ok, message), in pipeline order


def _check_complex(run):
    cx.save_complex(run.complex, run.path("complex.txt"))
    run.surface  # raises ComplexError listing the complex's issues
    return True, "complex valid"


def _check_cover(run):
    _write_cover(run.cover, run.path("cover.txt"))
    rep = run.cover_report
    _json_dump(rep, run.path("cover_report.json"))
    return rep["ok"], (
        f"max angle residual {rep['max_angle_residual']:.3e} "
        f"(tol {rep['tolerance']}), coverage {rep['coverage_fraction']}"
    )


def _check_relations(run):
    group, tol = run.group, run.cfg.relation_tol
    try:
        rep = gr.relation_suite(group, tol=tol)  # raises unless rep["ok"]
    except gr.GroupError as exc:  # the failing report's numbers stay fields
        rep = {**(exc.report or {}), "ok": False, "error": str(exc)}
    _json_dump(rep, run.path("relations.json"))
    return rep["ok"], rep.get("error") or (
        f"{rep['n_relations']} relations, max residual {rep['max_residual']:.3e} "
        f"(tol {tol}), premature gap {rep['min_premature_gap']:.3f} (> {gr.RELATION_SEPARATION})"
    )


def _check_faithfulness(run):
    faith = gr.faithfulness_scan(run.sub, run.cfg.max_word_length)
    _json_dump(faith, run.path("faithfulness.json"))
    return faith["ok"], (
        f"{faith['n_classes']} classes at L={run.cfg.max_word_length}, min gap "
        f"{faith['min_gap']:.4f} (> {gr.FAITHFUL_GAP})"
    )


def _disjoint(sub):
    """Whether the generators are pairwise disjoint: every off-diagonal
    Cartan entry is -2."""
    return bool((sub.cartan[~np.eye(len(sub.cartan), dtype=bool)] == -2).all())


def _check_orbit(run):
    """Decay, no truncation, and a parent for every sphere of generation >= 1
    when the generators are pairwise disjoint: only then is strict nesting a
    theorem, so other sub-assemblies report their orphans without failing."""
    orbit = run.orbit
    _write_orbit(orbit, run.sub, run.path("orbit.txt"))
    deeper = orbit.generation >= 1
    orphans = int((orbit.parent[deeper] < 0).sum())
    decay = gr.max_radius_per_generation(orbit)
    gens = sorted(decay)
    decay_ok = all(decay[a] >= decay[b] for a, b in zip(gens, gens[1:]))
    nesting = (f"{orphans} of {int(deeper.sum())} spheres without a parent" if orphans
               else "parents assigned") + (", truncated" if orbit.truncated else "")
    return not (orphans and _disjoint(run.sub)) and not orbit.truncated and decay_ok, (
        f"{len(orbit.radii)} spheres, {nesting}, max radius by "
        f"generation {[round(decay[g], 6) for g in gens]}"
    )


def _check_stages(run):
    """Every requested stage, with strictly increasing side counts, and on
    pairwise-disjoint generators the side counts n, 2n - 2, 2(2n - 2) - 2,
    ... of n generators: doubling across a side drops that side and keeps
    each other side beside its new image.  Other sub-assemblies can have two
    sides that are mirror images, so only the stage count and the increase
    are checked there."""
    stages = gr.polyhedron_stages(run.sub, run.orbit, run.cfg.n_stages)
    _json_dump(ls.stage_report(stages), run.path("stages.json"))
    counts = [s.n_sides for s in stages]
    ok = len(stages) == run.cfg.n_stages + 1 and all(a < b for a, b in zip(counts, counts[1:]))
    if _disjoint(run.sub):
        n = len(run.sub.cartan)
        ok = ok and counts == [(n - 2) * 2**k + 2 for k in range(len(counts))]
    return ok, f"side counts {counts}"


def _check_limitset(run):
    _export_clouds(run, ("csv", "json"))
    sub, orbit = run.sub, run.orbit
    lox, skipped = ls.loxodromic_points(sub, 50, seed=run.cfg.seed)
    gen1 = orbit.generation == 1
    inside = ls.containment_fraction(lox, orbit.centers[gen1] + sub.offset,
                                     orbit.radii[gen1], slack=1e-9 * run.cover.unit)
    ls.export_cloud(lox, "csv", run.path("loxodromic.csv"))
    held = round(inside * len(lox))  # the drawn points inside
    drawn = "" if held == len(lox) == 50 else f" of {len(lox)}"
    return len(run.cloud) > 0 and held == len(lox) == 50, (
        f"{len(run.cloud)} cloud points (eps {run.cfg.eps}), {held}{drawn} loxodromic fixed "
        f"points inside generation-1 spheres ({skipped} non-loxodromic skipped)"
    )


def _check_domain(run):
    dom = gr.fundamental_domain_check(run.cover, budget=run.cfg.domain_budget,
                                      seed=run.cfg.seed)
    _json_dump(dom, run.path("domain.json"))
    return dom["ok"], f"{dom['checks']} generator-point checks, {dom['violations']} violations"


def _check_bending(run):
    bending = run.bending
    _json_dump(bending, run.path("bending.json"))
    lams = [r["lambda_max"] for r in bending["rows"] if "lambda_max" in r]
    spread = max(lams) - min(lams) if lams else 0.0
    ok = not any("error" in r for r in bending["rows"]) and spread > 1e-4
    return ok, (
        f"amalgam {bending['amalgam']}, lambda_max spread {spread:.6e} over t in "
        f"{list(run.cfg.bend_ts)} (> 1e-4)"
    )


def _check_invariants(run):
    rows = {}
    for name in sorted(ax.PRESETS):
        delta = ax.alexander_polynomial(ax.PRESETS[name])
        verdict = ax.nontriviality_verdict(delta, depth=3)
        rows[name] = {"polynomial": verdict["base_polynomial"], "verdict": verdict["verdict"],
                      "delta_at_1": verdict["delta_at_1"]}
    ok = (
        all(r["delta_at_1"] in (1, -1) for r in rows.values())
        and rows["trefoil"]["polynomial"] == "t^2 - t + 1"
        and rows["unknot"]["verdict"] == "TRIVIAL"
        and rows["spun-trefoil"]["verdict"] == "NONTRIVIAL"
    )
    _json_dump(rows, run.path("alexander.json"))
    return ok, (
        f"spun-trefoil polynomial {rows['spun-trefoil']['polynomial']}, "
        f"verdict {rows['spun-trefoil']['verdict']}"
    )


STAGES = (
    ("complex", _check_complex), ("cover", _check_cover),
    ("relations", _check_relations), ("faithfulness", _check_faithfulness),
    ("orbit_nesting", _check_orbit), ("stages", _check_stages),
    ("limitset", _check_limitset), ("fundamental_domain", _check_domain),
    ("bending", _check_bending), ("invariants", _check_invariants),
)


def _check_line(name, ok, msg):
    return f"{'PASS' if ok else 'FAIL'} {name}: {msg}"


def run_pipeline(cfg):
    """Every stage into cfg.out_dir; returns (checks, out_dir).

    checks maps check name -> (ok, message); the summary file contains one
    pass/fail line per check plus the echoed config.  A stage that raises
    one of INPUT_ERRORS fails its check and ends the run.
    """
    cfg.validate()
    run = Run(cfg)
    _json_dump(dataclasses.asdict(cfg), run.path("config.json"))
    checks = {}
    for name, stage in STAGES:
        try:
            checks[name] = stage(run)
        except INPUT_ERRORS as exc:
            checks[name] = (False, "; ".join(getattr(exc, "issues", [str(exc)])))
            break
    _write_summary(cfg, checks, cfg.out_dir)
    return checks, cfg.out_dir


def _write_summary(cfg, checks, out):
    lines = ["# pipeline summary", "", "## config"]
    for key, val in sorted(dataclasses.asdict(cfg).items()):
        lines.append(f"{key} = {val!r}")
    lines += ["", "## checks"]
    for name, (ok, msg) in checks.items():
        lines.append(_check_line(name, ok, msg))
        print(lines[-1])
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build(run, _args):
    _check_complex(run)
    surf, cover = run.surface, run.cover
    _write_cover(cover, run.path("cover.txt"))
    print(f"complex: {len(run.complex.all_cubes)} cubes, surface faces={len(surf.faces)}, "
          f"chi={surf.euler_characteristic}")
    print(f"cover: {len(cover)} balls {cover.role_counts()}")
    print(f"wrote {run.path('complex.txt')} and {run.path('cover.txt')}")
    return 0


def cmd_validate(run, _args):
    _check_complex(run)
    ok, msg = _check_cover(run)
    rep = run.cover_report
    p = closed_form_parameters(float(run.complex.unit))
    print("closed-form parameters (tolerance 1e-9):")
    for name, val in sorted(p.items()):
        print(f"  {name} = {_fmt(val)}")
    print("angle residual table (cos targets 0, +1/2, -1/2; tolerance "
          f"{rep['tolerance']}):")
    print(f"  intersecting pairs : {rep['n_intersecting_pairs']}")
    print(f"  max cos residual   : {rep['max_angle_residual']:.3e}")
    print(f"  illegal pairs      : {len(rep['illegal_pairs'])}")
    print(f"coverage fraction    : {rep['coverage_fraction']} "
          f"({rep['n_samples_per_face']} samples/face, seed {run.cfg.seed})")
    print(_check_line("cover", ok, msg))
    print(f"wrote complex.txt, cover.txt and cover_report.json in {run.cfg.out_dir}")
    return 0 if ok else 1


def cmd_enumerate(run, _args):
    ok, msg = _check_orbit(run)
    length = run.cfg.max_word_length
    table = gr.enumerate_words(run.sub, length)
    print(f"sub-assembly: balls {run.sub.ball_ids}")
    print(f"words <= {length}: {len(table.lengths)} classes "
          f"(raw {table.n_raw}, merged {table.n_merged}, "
          f"truncated {table.truncated})")
    print(f"orbit spheres: {len(run.orbit.radii)}")
    print(_check_line("orbit_nesting", ok, msg))
    print(f"wrote {run.path('orbit.txt')}")
    return 0 if ok else 1


def cmd_limitset(run, args):
    cloud = run.cloud
    if cloud.notice:
        print(f"notice: {cloud.notice}")
    print(f"cloud: {len(cloud)} points (eps={run.cfg.eps}, L={run.cfg.max_word_length})")
    try:
        written = _export_clouds(run, [fmt.strip() for fmt in args.formats.split(",")])
    except ValueError as exc:  # an unknown export format
        print(f"FAIL limitset: {exc}")
        return 1
    if args.slice is not None:
        sl = ls.slice_cloud(cloud, *args.slice, args.slice_thickness * run.cover.unit)
        if sl.notice:
            print(f"notice: {sl.notice}")
        written.append(run.path("slice.ply"))
        ls.export_cloud(sl, "ply", written[-1])
    for w in written:
        print(f"wrote {w}")
    return 0


def cmd_bend(run, _args):
    ok, msg = _check_bending(run)
    j, word = run.bending["amalgam"], tuple(run.bending["crossing_word"])
    locus = bd.bending_locus(run.group, j)
    print(f"amalgam {j}: locus center {[_fmt(v) for v in locus.center]}, "
          f"radius {_fmt(locus.radius)} (target edge/sqrt(6) = "
          f"{_fmt(float(run.complex.unit) / 6 ** 0.5)}), crossing word {word}, "
          f"product shift over all t {run.bending['max_product_shift']:.3e}")
    for row in run.bending["rows"]:
        if "error" in row:
            print(f"FAIL {row['error']}")
            continue
        print(f"t={row['t']:5.2f}  lambda_max {row['lambda_max']:.10f}")
    print(_check_line("bending", ok, msg))
    print(f"wrote {run.path('bending.json')}")
    return 0 if ok else 1


def cmd_report(run, _args):
    checks, bundle_dir = run_pipeline(run.cfg)
    print(f"bundle written to {bundle_dir}")
    return 0 if all(ok for ok, _msg in checks.values()) else 1


def cmd_alexander(args):
    try:
        if args.file:
            with open(args.file, encoding="utf-8") as fh:
                pres = ax.parse_presentation(fh.read())
        else:
            pres = ax.PRESETS[args.knot_preset]
        delta = ax.alexander_polynomial(pres)
    except (OSError, ValueError) as exc:  # an unreadable or malformed presentation
        print(f"FAIL alexander: {exc}")
        return 1
    verdict = ax.nontriviality_verdict(delta, depth=args.depth)
    print(verdict["base_polynomial"])
    print(f"verdict: {verdict['verdict']} (Delta(1) = {verdict['delta_at_1']})")
    for s in verdict["stages"] if args.verbose else verdict["stages"][-1:]:
        print(f"  stage {s['stage']}: {s['copies']} copies, degree "
              f"{s['degree']}: {s['polynomial']}")
    if args.verbose:
        for fact in verdict["assumed_facts"]:
            print(f"  {fact}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _floats(text):
    return tuple(float(t) for t in text.split(","))


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {text}")
    return value


class _Slice(argparse.Action):
    """--slice AXIS VALUE as (int axis in 0..3, finite float value)."""

    def __call__(self, parser, namespace, values, option_string=None):
        axis, value = values
        try:
            value = float(value)
        except ValueError:
            value = np.nan
        if axis not in ("0", "1", "2", "3") or not np.isfinite(value):
            parser.error(f"argument --slice: expected an axis 0-3 and a finite value, "
                         f"not {' '.join(values)}")
        setattr(namespace, self.dest, (int(axis), value))


# The flag of each RunConfig field.  A flag left unset keeps RunConfig's
# default (--out: $WILDKNOT_OUT if set).
_FLAGS = {
    "preset": (("--preset",), {"help": "bundled complex name (default: spun-trefoil)"}),
    "complex_path": (("--complex",), {"help": "path to a complex file (overrides --preset)"}),
    "out_dir": (("--out",), {}),
    "max_word_length": (("-L", "--max-len"), {"type": int}),
    "eps": (("--eps",), {"type": float, "help": "limit-set cloud radius cutoff, in tube units"}),
    "n_stages": (("--stages",), {"type": int}),
    "seed": (("--seed",), {"type": int}),
    "samples_per_face": (("--samples-per-face",), {"type": int}),
    "domain_budget": (("--domain-budget",), {"type": int}),
    "relation_tol": (("--relation-tol",), {"type": float}),
    "bend_amalgam": (("--bend-amalgam",), {"type": int}),
    "bend_ts": (("--bend-ts",), {"type": _floats, "help": "comma-separated bending angles"}),
}


def _add_config(p, *fields):
    """Flags for the complex, the cover and the output, plus `fields`'."""
    for field in dict.fromkeys(("preset", "complex_path", "out_dir") + fields):
        names, kw = _FLAGS[field]
        default = argparse.SUPPRESS
        if field == "out_dir":
            default = os.environ.get("WILDKNOT_OUT", RunConfig.out_dir)
        p.add_argument(*names, dest=field, default=default, **kw)


def _add_subassembly(p):
    p.add_argument("--amalgam", type=int, default=None,
                   help="use the 4 generators of this amalgam")
    p.add_argument("--schottky", type=int, default=4,
                   help="number of pairwise disjoint generators (default)")


def _config_from_args(args):
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in fields}).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wildknot",
        description="Build and explore reflection-group ball covers whose "
        "limit set is a wild 2-knot.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct the complex and ball cover")
    _add_config(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("validate", help="validate complex, angles, coverage")
    _add_config(p, "seed", "samples_per_face")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("enumerate", help="enumerate words and orbit spheres")
    _add_config(p, "max_word_length")
    _add_subassembly(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("limitset", help="limit-set point clouds and exports")
    _add_config(p, "max_word_length", "eps")
    _add_subassembly(p)
    p.add_argument("--formats", default="csv,json")
    p.add_argument("--slice", nargs=2, metavar=("AXIS", "VALUE"), default=None,
                   action=_Slice)
    p.add_argument("--slice-thickness", type=_positive, default=0.5,
                   help="keep points within this distance of the slice, in tube units")
    p.set_defaults(func=cmd_limitset)

    p = subs.add_parser("bend", help="bending deformation sweep at an amalgam")
    _add_config(p, "bend_amalgam", "bend_ts", "relation_tol")
    p.set_defaults(func=cmd_bend)

    p = subs.add_parser("alexander", help="Alexander polynomial tools")
    p.add_argument("--preset", dest="knot_preset", default="trefoil",
                   choices=sorted(ax.PRESETS))
    p.add_argument("--file", default=None,
                   help="presentation file instead of a preset")
    p.add_argument("--depth", type=int, default=6,
                   help=f"last connected-sum stage, 0 to {ax.MAX_DEPTH}, printed alone "
                   "(every stage with -v); stage i has 2^i copies")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = subs.add_parser("report", help="full pipeline with pass/fail summary")
    _add_config(p, *_FLAGS)
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    usage_error = subs.choices[args.command].error
    if args.func is cmd_alexander:
        if not 0 <= args.depth <= ax.MAX_DEPTH:
            usage_error(f"depth must be between 0 and {ax.MAX_DEPTH}")
        return cmd_alexander(args)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        usage_error(str(exc))
    try:
        run = Run(cfg, getattr(args, "amalgam", None), getattr(args, "schottky", 4))
    except OSError as exc:
        usage_error(f"cannot make the output directory {cfg.out_dir!r}: {exc.strerror or exc}")
    try:
        return args.func(run, args)
    except INPUT_ERRORS as exc:
        label = "complex" if isinstance(exc, cx.ComplexError) else args.command
        for issue in getattr(exc, "issues", [str(exc)]):
            print(f"FAIL {label}: {issue}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
