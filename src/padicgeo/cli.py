"""Command-line entry point: experiments, reports, and the umbrella suite.

Reports are bit-stable: keys are sorted, exact rationals appear as
{"num": ..., "den": ...} integer pairs, statistical quantities are decimal
strings with 12 significant digits, and no wall-clock values are written.
Every report's config holds the subcommand, the options that shaped the run
(an option the run never read is left out) and the stream format
(``sample.STREAM_FORMAT``) that fixes what a seed draws.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import accept, countvol, igf, roots, veronese
from .errors import NotStabilized, PadicError
from .sample import STREAM_FORMAT, RandomPolyModel, Stream, check_seed


# the options each igf experiment reads, besides the ones every igf run records
_IGF_COMMON = ("experiment", "samples", "seed", "workers", "output")
_IGF_OPTIONS = {
    "linear-lemma": ("prime", "ball"),
    "curve": ("curve", "prime", "degree"),
    "expected-zeros": ("model", "prime", "degree", "region"),
    "density": ("model", "prime", "degree"),
}
# the options each veronese check reads
_VERONESE_OPTIONS = {
    "isometry": ("kind", "n", "d", "prime", "check", "pairs", "seed"),
    "jacobian": ("kind", "d", "prime", "check"),
    "arclength": ("kind", "d", "prime", "check"),
}


def _options(args, names) -> dict:
    """The named options of a run, as its report's config records them."""
    return {name: getattr(args, name) for name in names}


def _encode(obj):
    """Make results JSON-ready: Fractions as integer pairs, floats as strings."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, float):
        return f"{obj:.12g}"
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def emit_report(subcommand: str, params: dict, results, path) -> str:
    """Write {config, results} as deterministic JSON; returns the text."""
    config = {"subcommand": subcommand, "params": params, "stream_format": STREAM_FORMAT}
    payload = {"config": config, "results": _encode(results)}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _default_outdir() -> str:
    return os.environ.get("PADICGEO_OUTDIR", ".")


def _out_path(args, stem: str, ext: str = "json"):
    if getattr(args, "no_files", False):
        return None
    name = args.output_name or f"report-{stem}.{ext}"
    return os.path.join(args.outdir, name)


def _write_csv(path, header, rows):
    if path is None:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_roots(args) -> int:
    coeffs = [int(c) for c in args.coeffs.split(",")]
    precision = args.precision
    rep = roots.count_roots(args.prime, coeffs, args.chart, precision)
    params = {"coeffs": coeffs, "prime": args.prime, "chart": args.chart, "precision": precision}
    results = {
        "count": rep.count,
        "status": rep.status,
        "witnesses": [
            {"center": w.center, "level": w.level, "chart": w.chart}
            for w in rep.witnesses
        ],
        "precision_consumed": rep.precision_consumed,
        "unresolved_classes": rep.unresolved_classes,
    }
    text = emit_report("roots", params, results, _out_path(args, "roots"))
    print(text, end="")
    return 0 if rep.status == roots.EXACT else 1


def _build_set(args):
    gens = [g.strip() for g in args.gens.split(";") if g.strip()]
    return countvol.AlgebraicSet.from_strings(
        args.ambient, gens, dim=args.dim, degree=args.degree
    )


def _volume_results(est: countvol.VolumeEstimate) -> dict:
    return {
        "value": est.value,
        "interval": list(est.interval),
        "stabilization_level": est.stabilization_level,
        "dim": est.dim,
        "prime": est.prime,
        "sequence": [[m, lo, hi] for m, lo, hi in est.sequence],
    }


def _cmd_count(args) -> int:
    xset = _build_set(args)
    try:
        est = countvol.estimate_volume(xset, args.prime, args.level)
        stabilized = True
    except NotStabilized as exc:
        est = exc.estimate
        stabilized = False
    res = est.counts[-1]
    params = {
        "gens": [str(g) for g in xset.generators],
        **_options(args, ("prime", "level", "dim", "degree", "ambient")),
    }
    results = {
        "count": {
            "level": res.level,
            "n_lo": res.n_lo,
            "n_hi": res.n_hi,
            "unknown_classes": res.unknown_classes,
            "certified_sample": [
                {"coords": list(pt.coords), "jacobian_valuation": w}
                for pt, w in res.certified_classes[:16]
            ],
        },
        "volume": _volume_results(est),
        "stabilized": stabilized,
    }
    text = emit_report("count", params, results, _out_path(args, "count"))
    print(text, end="")
    if args.csv and not args.no_files:
        _write_csv(
            os.path.join(args.outdir, args.csv),
            ["m", "n_lo", "n_hi"],
            [[m, lo, hi] for m, lo, hi in est.sequence],
        )
    if xset.degree is not None:
        rep = countvol.check_degree_bound(xset, est)
        if not rep.normalized_ok:
            return 1
    return 0 if res.exact else 1


def _cmd_volume(args) -> int:
    xset = _build_set(args)
    try:
        est = countvol.estimate_volume(xset, args.prime, args.max_level)
        stabilized = True
    except NotStabilized as exc:
        est = exc.estimate
        stabilized = False
    params = {
        "gens": [str(g) for g in xset.generators],
        **_options(args, ("prime", "max_level", "dim", "degree", "ambient")),
    }
    results = {"volume": _volume_results(est), "stabilized": stabilized}
    if xset.degree is not None:
        rep = countvol.check_degree_bound(xset, est)
        results["degree_bound"] = {
            "normalized_ratio": rep.normalized_ratio,
            "raw_ok": rep.raw_ok,
            "normalized_ok": rep.normalized_ok,
            "slack": rep.slack,
        }
    text = emit_report("volume", params, results, _out_path(args, "volume"))
    print(text, end="")
    return 0 if stabilized else 1


def _cmd_veronese(args) -> int:
    if args.kind == "standard" and args.check != "isometry":
        raise ValueError(f"--check {args.check} needs --kind mahler")
    if args.check == "isometry":
        kind = veronese.STANDARD if args.kind == "standard" else veronese.MAHLER_AFFINE
        out = veronese.isometry_check(
            veronese.VeroneseMap(kind, args.n, args.d),
            args.prime,
            args.pairs,
            Stream(args.seed),
        )
        results = {"check": "isometry", **out}
        passed = out["failures"] == 0
    elif args.check == "jacobian":
        affine = veronese.mahler_jacobian_norm(args.prime, args.d, 0)
        annuli = {
            f"m={m}": veronese.mahler_extended_jacobian_norm(
                args.prime, args.d, Fraction(1, args.prime**m)
            )
            for m in (1, 2, 3)
        }
        results = {"check": "jacobian", "affine_norm": affine, "annulus_norms": annuli}
        passed = True
    elif args.check == "arclength":
        vol = veronese.mahler_curve_volume(args.prime, args.d)
        annuli = {
            f"m={m}": veronese.mahler_annulus_volume(args.prime, args.d, m)
            for m in (1, 2, 3)
        }
        results = {
            "check": "arclength",
            "affine_image_volume": vol,
            "annulus_volumes": annuli,
            "outside_volume": veronese.mahler_outside_volume(args.prime, args.d),
        }
        passed = True
    else:
        raise ValueError(f"unknown check {args.check!r}")
    params = _options(args, _VERONESE_OPTIONS[args.check])
    text = emit_report("veronese", params, results, _out_path(args, "veronese"))
    print(text, end="")
    return 0 if passed else 1


def _cmd_igf(args) -> int:
    cfg = igf.McConfig(samples=args.samples, seed=args.seed, workers=args.workers)
    if args.experiment == "linear-lemma":
        x = igf.LinearSubspace(2, [(0, 1, 0)])
        y = igf.LinearSubspace(2, [(0, 0, 1)])
        rep = igf.mc_linear_lemma(args.prime, x, y, None, args.ball, args.ball, cfg)
    elif args.experiment == "curve":
        rep = igf.mc_igf_curve(args.prime, args.curve, args.degree, cfg)
    elif args.experiment == "expected-zeros":
        model = RandomPolyModel(args.model, args.degree, args.prime)
        rep = igf.mc_expected_zeros(model, args.region, cfg)
    elif args.experiment == "density":
        model = RandomPolyModel(args.model, args.degree, args.prime)
        rep = igf.density_uniformity_test(model, cfg)
    else:
        raise ValueError(f"unknown experiment {args.experiment!r}")
    report_dict = rep.as_report_dict(args.experiment)
    if args.output == "json":
        names = _IGF_COMMON + _IGF_OPTIONS[args.experiment]
        if args.experiment == "curve" and args.curve == igf.CURVE_LINE:
            names = tuple(n for n in names if n != "degree")  # a line has degree 1
        text = emit_report("igf", _options(args, names), report_dict, _out_path(args, "igf"))
        print(text, end="")
    else:
        cells = {**report_dict, "stream_format": STREAM_FORMAT}
        header = sorted(cells)
        row = [_csv_cell(cells[k]) for k in header]
        _write_csv(_out_path(args, "igf", "csv"), header, [row])
        csv.writer(sys.stdout).writerows([header, row])
    # a density report has no target: rejecting uniformity is a finding, not a failure
    return 0 if report_dict.get("pass", True) else 1


def _csv_cell(v):
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return v


def _cmd_reproduce(args) -> int:
    check_seed(args.seed)  # before any criterion prints a line
    indices = set(args.only) if args.only else None
    results = []

    def progress(res):
        state = "pass" if res.passed else "FAIL"
        budget = "" if res.runtime_ok else f"  [over budget {res.runtime_budget:.0f}s]"
        print(
            f"criterion {res.index:2d}  {state}  {res.runtime:7.2f}s  {res.name}{budget}",
            flush=True,
        )

    interrupted = False
    try:
        results = accept.run_all(seed=args.seed, indices=indices, progress=progress)
    except KeyboardInterrupt:
        interrupted = True
    params = {"seed": args.seed, "only": sorted(indices) if indices else None}
    rows = [r.row() for r in results]
    all_ok = bool(results) and all(r.passed and r.runtime_ok for r in results)
    payload = {"criteria": rows, "all_pass": all_ok, "interrupted": interrupted}
    text = emit_report("reproduce-paper", params, payload, _out_path(args, "reproduce-paper"))
    if args.print_json:
        print(text, end="")
    _write_csv(
        _out_path(args, "reproduce-paper", "csv"),
        ["index", "name", "pass", "runtime_ok"],
        [[r.index, r.name, r.passed, r.runtime_ok] for r in results],
    )
    print("all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok and not interrupted else 1


# -- parser ------------------------------------------------------------------------


def _prime(text: str) -> int:
    """argparse type for --prime: an integer p >= 2 with no divisor up to sqrt(p)."""
    p = int(text)
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicgeo",
        description="Exact p-adic counting, volumes, and Monte Carlo intersection experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--outdir", default=_default_outdir(), help="report directory (env PADICGEO_OUTDIR)"
    )
    common.add_argument("--output-name", default=None, help="override the report filename")
    common.add_argument(
        "--no-files", action="store_true", help="print reports without writing files"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_roots = sub.add_parser(
        "roots", help="count roots of an integer polynomial", parents=[common]
    )
    p_roots.add_argument(
        "--coeffs", required=True, help="ascending in t, e.g. 1,0,-1 for t^2 - 1"
    )
    p_roots.add_argument("--prime", type=_prime, required=True)
    p_roots.add_argument("--chart", default="zp", help="zp | p1 | qp | annulus:m")
    p_roots.add_argument("--precision", type=int, default=None)
    p_roots.set_defaults(func=_cmd_roots)

    for name, extra in (("count", "level"), ("volume", "max_level")):
        p_c = sub.add_parser(name, help=f"{name} points of a projective set", parents=[common])
        p_c.add_argument("--gens", required=True, help="semicolon-separated generators")
        p_c.add_argument("--prime", type=_prime, required=True)
        p_c.add_argument(f"--{extra.replace('_', '-')}", type=int, required=True)
        p_c.add_argument("--dim", type=int, required=True)
        p_c.add_argument("--degree", type=int, default=None)
        p_c.add_argument("--ambient", type=int, default=2)
        if name == "count":
            p_c.add_argument("--csv", default=None, help="also write the N_m sequence")
            p_c.set_defaults(func=_cmd_count)
        else:
            p_c.set_defaults(func=_cmd_volume)

    p_v = sub.add_parser("veronese", help="embedding checks", parents=[common])
    p_v.add_argument("--kind", choices=["standard", "mahler"], required=True)
    p_v.add_argument("--n", type=int, default=1)
    p_v.add_argument("--d", type=int, required=True)
    p_v.add_argument("--prime", type=_prime, required=True)
    p_v.add_argument("--check", choices=["isometry", "jacobian", "arclength"], required=True)
    p_v.add_argument("--pairs", type=int, default=1000)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.set_defaults(func=_cmd_veronese)

    p_i = sub.add_parser("igf", help="Monte Carlo intersection experiments", parents=[common])
    p_i.add_argument(
        "--experiment",
        choices=["linear-lemma", "curve", "expected-zeros", "density"],
        required=True,
    )
    p_i.add_argument("--model", choices=["monomial", "mahler"], default="monomial")
    p_i.add_argument("--curve", choices=["veronese", "line", "mahler"], default="veronese")
    p_i.add_argument("--prime", type=_prime, required=True)
    p_i.add_argument("--degree", type=int, default=2)
    p_i.add_argument("--region", default="p1", help="p1 | zp | qp | annulus:m")
    p_i.add_argument("--ball", type=int, default=1, help="ball level for linear-lemma")
    p_i.add_argument("--samples", type=int, default=20_000)
    p_i.add_argument("--seed", type=int, default=0)
    p_i.add_argument("--workers", type=int, default=1)
    p_i.add_argument("--output", choices=["json", "csv"], default="json")
    p_i.set_defaults(func=_cmd_igf)

    p_r = sub.add_parser("reproduce-paper", help="run the full acceptance suite", parents=[common])
    p_r.add_argument("--seed", type=int, default=42)
    p_r.add_argument("--only", type=int, nargs="*", default=None, help="criterion indices")
    p_r.add_argument("--print-json", action="store_true")
    p_r.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.no_files and not os.path.isdir(args.outdir):
            raise ValueError(f"--outdir {args.outdir!r} is not a directory")
        return args.func(args)
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
