"""Command-line frontend.

Every analysis is a subcommand emitting JSON (default) or plot-ready CSV,
either to stdout or to a file named by --out.  File writes go through a
".partial" staging name and are renamed atomically, so an interrupted run
never leaves a truncated file under the final name.

Option resolution, lowest to highest: built-in defaults, --config file,
FRACPACK_* environment variables, command-line flags.

Exit codes: 0 success, 2 usage or validation error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional

from .codespace import influence_count, sample_sequence
from .config import RunConfig, resolve_config
from .ifs import IFSSystem, count_in_ball, project, similarity_dimension
from .measure import (
    DensityEntry,
    _float,
    box_counting_profile,
    density_profile,
    density_ratio,
    measure_bounds,
    packing_premeasure_estimate,
    recommended_word_length,
)
from .numeric import CapError, SymbolicPoint, make_lacunary, parse_rational, rational_str
from .stats import borel_cantelli_table, monte_carlo_growth


def _round15(x: float) -> float:
    """Round to 15 significant digits; hides the last bit of bisection noise."""
    return float(f"{x:.15g}")


def _render_json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", byte for byte.

    With indent set, json.dumps runs CPython's pure-Python encoder.  This
    writer gives the same text for the exact types payloads hold: str,
    int, float, bool, None, and lists, tuples and str-keyed dicts of them;
    any other type raises TypeError.  Strings go through json's own ASCII
    escaper.
    """
    return _json_text(payload, "\n") + "\n"


_FLOAT_NAMES = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_text(o, nl: str) -> str:
    """One JSON value; nl is the newline and indent of its own line."""
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is int:
        return repr(o)
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        parts = []
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(_json_str(key) + ": " + _json_text(o[key], inner))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in o]) + nl + "]"
    if t is float:
        text = repr(o)
        return _FLOAT_NAMES.get(text, text)
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _render_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, cfg: RunConfig, payload: dict, csv_rows) -> None:
    """Write payload as JSON, or the rows that csv_rows() returns as CSV.

    The rows are built only for CSV, so a CSV column past float range
    (CapError) never stops a JSON answer.
    """
    fmt = cfg.format if args.format is None else args.format
    text = _render_json(payload) if fmt == "json" else _render_csv(csv_rows())
    out = args.out
    if out is None and cfg.out_dir:
        out = os.path.join(cfg.out_dir, f"{args.command}.{fmt}")
    if out is None:
        sys.stdout.write(text)
        return
    partial = out + ".partial"
    with open(partial, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(partial, out)


def _check_trials(trials: int, cfg: RunConfig) -> int:
    if trials > cfg.trials_cap:
        raise CapError(f"trials = {trials} exceeds trials_cap = {cfg.trials_cap}")
    return trials


def _capped(what: str, value: int, lam) -> int:
    """value, or CapError past lam.materialize_cap: a depth or word length
    checked before any word or power of 4 is built."""
    if value > lam.materialize_cap:
        raise CapError(f"{what} {value} exceeds materialize_cap = {lam.materialize_cap}")
    return value


def _parse_ints(text: str, what: str) -> list[int]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ValueError(f"{what} must be a nonempty comma-separated list")
    try:
        return [int(p) for p in items]
    except ValueError as exc:
        raise ValueError(f"{what} must contain integers, got {text!r}") from exc


# Each cmd_* takes (args, cfg, system), system None for a command without
# --lambda, and returns (payload, csv_rows); main stamps and writes them.


def cmd_dimension(args, cfg: RunConfig, system):
    parts = [p.strip() for p in args.ratios.split(",") if p.strip()]
    s = _round15(similarity_dimension(parts))
    # The bare float, unless a flag or the config asks for csv or a file.
    if (args.format is None and args.out is None
            and cfg.format == "json" and not cfg.out_dir):
        sys.stdout.write(f"{s!r}\n")
        return None
    ratios = [rational_str(parse_rational(p)) for p in parts]
    return {"ratios": ratios, "dimension": s}, lambda: [["dimension"], [s]]


def cmd_count(args, cfg: RunConfig, system: IFSSystem):
    if args.n < 0:  # before 4**-n, which a huge negative n would build
        raise ValueError("depth must be >= 0")
    _capped("depth", args.n, system.lam)
    center = project(args.center)
    C = parse_rational(args.C)
    result = count_in_ball(system, args.n, center, C * Fraction(1, 4) ** args.n,
                           witnesses=args.witnesses)
    payload = {"n": args.n, "center": args.center, "C": rational_str(C),
               "count": result.count}
    rows = [["count"], [result.count]]
    if result.witnesses is not None:
        payload["witnesses"] = list(result.witnesses)
        rows = [["witness"]] + [[w] for w in result.witnesses]
    return payload, lambda: rows


def cmd_influence(args, cfg: RunConfig, system: IFSSystem):
    j = args.j if args.j is not None else len(args.word)
    summary = influence_count(args.word, j, system.lam)
    payload = {"word": args.word, "j": j, "S": summary.count,
               "records": [r.to_dict() for r in summary.records]}
    return payload, lambda: [["i", "k"]] + [[r.i, r.k] for r in summary.records]


def cmd_simulate(args, cfg: RunConfig, system: IFSSystem):
    checkpoints = _parse_ints(args.checkpoints, "checkpoints")
    trials = _check_trials(args.trials, cfg)
    seed = cfg.seed if args.seed is None else args.seed
    report = monte_carlo_growth(system.lam, checkpoints, trials, seed)
    return report.to_dict(), report.csv_rows


def cmd_density(args, cfg: RunConfig, system: IFSSystem):
    lam = system.lam
    _capped("depth", args.n_max, lam)
    word = args.word
    if word is None:
        word = "0" * _capped("word length", recommended_word_length(lam, args.n_max), lam)
    report = density_profile(system, word, args.n_max, parse_rational(args.C))
    return report.to_dict(), report.csv_rows


def cmd_blowup(args, cfg: RunConfig, system: IFSSystem):
    """Density ratios at level j around seeded words with S >= min_successes.

    Each kept word's floor (S + 1)/(2*(C + 1))**s holds for C >= 5/3: its
    level-j prefix and one perturbed prefix per influence record are S + 1
    distinct words within (5/3)*4**-j of its point x.  A record (i, k) turns the u at
    i into 0 and the zeros at i + lam_1, ..., i + lam_k into 1, which moves
    the point left by 4**-i * sum_{m>k} 4**-lam_m < (4/3)*4**-j, because
    i + lam_{k+1} >= j.  Cutting a word at j moves it left by at most
    (1/3)*4**-j.  So count >= S + 1 and ratio_bound >= floor.
    """
    C = parse_rational(args.C)
    if C < Fraction(5, 3):
        raise ValueError(f"C = {rational_str(C)} is below 5/3, the radius "
                         "coefficient that certifies count >= S + 1")
    if args.j < 1:
        raise ValueError("j must be >= 1")
    if args.samples < 0:
        raise ValueError("samples must be >= 0")
    _check_trials(args.samples, cfg)
    lam = system.lam
    length = _capped("word length", recommended_word_length(lam, args.j), lam)
    seed = cfg.seed if args.seed is None else args.seed
    entries = []
    for t in range(args.samples):
        word = sample_sequence(f"{seed}:cond:{t}", length)
        S = influence_count(word, args.j, lam).count
        if S < args.min_successes:
            continue
        entry = density_ratio(system, project(word), args.j, C)
        # The floor is the ratio bound that S + 1 counted words certify.
        entries.append({"trial": t, "S": S, "count": entry.count,
                        "ratio_bound": entry.ratio_bound,
                        "floor": DensityEntry(args.j, C, S + 1).ratio_bound})
    payload = {
        "j": args.j,
        "C": rational_str(C),
        "word_length": length,
        "min_successes": args.min_successes,
        "samples": args.samples,
        "seed": seed,
        "entries": entries,
        "min_ratio": min((e["ratio_bound"] for e in entries), default=None),
    }
    keys = ["trial", "S", "count", "ratio_bound", "floor"]
    return payload, lambda: [keys] + [[e[k] for k in keys] for e in entries]


def cmd_measure(args, cfg: RunConfig, system: IFSSystem):
    lo = SymbolicPoint(parse_rational(args.lo), Fraction(0))
    hi = SymbolicPoint(parse_rational(args.hi), Fraction(0))
    report = measure_bounds(system, lo, hi, args.n)
    payload = report.to_dict()
    payload.update({"lo": rational_str(lo.p), "hi": rational_str(hi.p)})
    rows = [["n", "contained", "intersecting", "lower", "upper"],
            [report.n, report.contained, report.intersecting,
             float(report.lower), float(report.upper)]]
    return payload, lambda: rows


def cmd_pack(args, cfg: RunConfig, system: IFSSystem):
    report = packing_premeasure_estimate(system, args.n, parse_rational(args.delta))
    return report.to_dict(), lambda: [
        ["n", "delta", "accepted", "value"],
        [report.n, _float(report.delta, "delta"), report.accepted, report.value]]


def cmd_boxcount(args, cfg: RunConfig, system: IFSSystem):
    report = box_counting_profile(system, args.n_max)
    return report.to_dict(), report.csv_rows


def cmd_verify(args, cfg: RunConfig, system: IFSSystem):
    table = borel_cantelli_table(system.lam, args.M, args.k_max)
    rows = [["k", "j_lo", "j_hi", "count", "N", "p", "M", "flagged",
             "hoeffding", "contribution", "log10_contribution"]]
    for row in table.rows:
        d = row.to_dict()
        rows.append([d[key] for key in rows[0]])
    return table.to_dict(), lambda: rows


def _add_common(sub: argparse.ArgumentParser, with_lambda: bool = True) -> None:
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output file (default: stdout, or out_dir from config)")
    if with_lambda:
        sub.add_argument("--lambda", dest="lam", default=None, metavar="DESC",
                         help="sequence descriptor: paper | geometric:b=B,start=S"
                              " | explicit:t1,t2,...")


# argparse reads a word after "-" as an option unless it matches this: "-"
# and then unsigned text without spaces in the grammar parse_rational reads,
# Fraction(text)'s: -1, -1/4, -0.25, -.5, -1., -1e-3, -1_000 (and -1/0, which
# parse_rational then rejects).  No option name starts with "-" and a digit,
# or "-." and a digit.
_NEGATIVE_NUMBER = re.compile(
    r"-(?=\.?\d)(\d+(_\d+)*)?(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?([eE][-+]?\d+(_\d+)*)?)\Z")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser; see _parsers."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built on
    the first call and reused after.

    --lambda, --format and --seed default to None; the config fills them.
    Each subcommand's parser sets command to its own name.
    """
    parser = argparse.ArgumentParser(
        prog="fracpack",
        description="Exact-arithmetic analyses of a base-4 self-similar set "
                    "with a lacunary third translation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dimension", help="similarity dimension of a ratio list")
    _add_common(p, with_lambda=False)
    p.add_argument("--ratios", required=True,
                   help="comma-separated contraction ratios, e.g. 1/4,1/4,1/4")
    p.set_defaults(func=cmd_dimension)

    p = subs.add_parser("count", help="level-n points inside a ball")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--center", required=True, metavar="WORD",
                   help="code word over {0,1,u}; the ball center is its projection")
    p.add_argument("--C", default="1", help="radius coefficient: radius = C*4**-n")
    p.add_argument("--witnesses", action="store_true",
                   help="list the accepted words as well")
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("influence", help="influencing positions of a word")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--j", type=int, default=None,
                   help="target position (default: word length)")
    p.set_defaults(func=cmd_influence)

    p = subs.add_parser("simulate", help="Monte Carlo growth of influence counts")
    _add_common(p)
    p.add_argument("--checkpoints", required=True,
                   help="comma-separated positions, e.g. 6,14,30")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("density", help="lower density ratio profile at a point")
    _add_common(p)
    p.add_argument("--word", default=None,
                   help="code word for the center (default: all zeros)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--C", default="3", help="ball radius coefficient")
    p.set_defaults(func=cmd_density)

    p = subs.add_parser("blowup", help="density ratios at seeded words with many "
                                       "influencing positions")
    _add_common(p)
    p.add_argument("--j", type=int, required=True, help="target position and level")
    p.add_argument("--C", default="3", help="ball radius coefficient, at least 5/3")
    p.add_argument("--min-successes", type=int, default=2,
                   help="keep words with S >= this threshold")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_blowup)

    p = subs.add_parser("measure", help="natural-measure bounds for an interval")
    _add_common(p)
    p.add_argument("--lo", required=True, help="left endpoint (rational)")
    p.add_argument("--hi", required=True, help="right endpoint (rational)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("pack", help="greedy packing pre-measure estimate")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True, help="separation gauge (rational)")
    p.set_defaults(func=cmd_pack)

    p = subs.add_parser("boxcount", help="occupied 4**-n cells per level")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_boxcount)

    p = subs.add_parser("verify", help="per-scale tail-bound summability table")
    _add_common(p)
    p.add_argument("--M", type=int, default=0, help="threshold in the tail bound")
    p.add_argument("--k-max", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    parser._negative_number_matcher = _NEGATIVE_NUMBER
    for name, p in subs.choices.items():
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(command=name)
    return parser, subs.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with one parser reading argv.

    When argv[0] names a subcommand, its parser alone reads argv[1:], as
    the top-level parser would hand them over.  No arguments, a help
    flag, an unknown command and arguments left over all go to the
    top-level parser, so its messages stay the same: leftovers read
    "fracpack: error: unrecognized arguments: ...".
    """
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand: resolve the config, build the system the
    command's --lambda names, and write the payload the command returns
    with "schema": 1 and, for a command with --lambda, the canonical
    "lambda" descriptor.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        cfg = resolve_config(args.config)
        system = None
        if "lam" in args:
            lam = make_lacunary(cfg.lam if args.lam is None else args.lam,
                                materialize_cap=cfg.materialize_cap)
            system = IFSSystem(lam, enumeration_cap=cfg.enum_cap)
        result = args.func(args, cfg, system)
        if result is not None:
            payload, csv_rows = result
            payload["schema"] = 1
            if system is not None:
                payload["lambda"] = system.lam.descriptor()
            _emit(args, cfg, payload, csv_rows)
        return 0
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
