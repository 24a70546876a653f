"""Command-line interface and the on-disk formats it writes.

Commands:

  generate   write the 4d vertices (representatives then antipodes)
  certify    run the three certificate conditions, emit a JSON report
  verify     run an oracle sweep: faces, dominant subsets, or containment
  hadamard   generate/import a Hadamard matrix, optionally profile it

Exit codes are a stable API: 0 success, 2 usage or input error,
3 verification failure, 1 internal error.  Exact values are serialized as
canonical fraction strings ("p/q", or "p" when the denominator is 1), never
floats; reports embed their command line, including every flag and the
environment cap that change the report, and re-running it reproduces the
report byte for byte apart from the duration field.  --jobs changes no output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from itertools import chain, islice, repeat

from . import certificate, construction, oracle
from .hadamard import load_hadamard, row_profile, sylvester
from .sweep import ordered_map

SCHEMA = 1
DEFAULT_CAP = 1_000_000


def frac_str(x) -> str:
    return str(Fraction(x))


def write_ext(points, dim, fh) -> None:
    """cdd-style V-representation: homogenizing 1 plus exact coordinates."""
    fh.write("V-representation\n")
    fh.write("begin\n")
    fh.write(f" {len(points)} {dim + 1} rational\n")
    for p in points:
        fh.write(" 1 " + " ".join(frac_str(c) for c in p) + "\n")
    fh.write("end\n")


def write_vertices_json(con, points, fh) -> None:
    doc = {
        "schema": SCHEMA,
        "kind": "vertices",
        "d": con.d,
        "k": con.k,
        "m": con.m,
        "alpha": frac_str(con.params.alpha),
        "beta": frac_str(con.params.beta),
        "points": [[frac_str(c) for c in p] for p in points],
    }
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


# -- report plumbing -----------------------------------------------------------


def _report_doc(command, con, k, check, mode, counts, min_margin, seed,
                failures, duration):
    """A report of a sweep of size or weight k over con."""
    return {
        "schema": SCHEMA,
        "command": command,
        "check": check,
        "d": con.d,
        "k": k,
        "alpha": frac_str(con.params.alpha),
        "beta": frac_str(con.params.beta),
        "mode": mode,
        "counts": counts,
        "min_margin": None if min_margin is None else frac_str(min_margin),
        "seed": seed,
        "failures": failures,
        "duration_seconds": duration,
    }


def _emit(doc, out_path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row_cap(args) -> int:
    """--cap if given, else NEIGHBORLY_MAX_ROWS if set, else DEFAULT_CAP.

    Raises ValueError, naming the variable, when NEIGHBORLY_MAX_ROWS is not
    an integer of at least 1 (argparse already checks --cap).
    """
    if args.cap is not None:
        return args.cap
    env = os.environ.get("NEIGHBORLY_MAX_ROWS")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(
            f"NEIGHBORLY_MAX_ROWS must be an integer of at least 1, got {env!r}"
        )
    return cap


def _load_construction(args):
    if args.hadamard is not None:
        h = load_hadamard(args.hadamard)
    else:
        d = args.d
        if d < 1 or d & (d - 1):
            raise ValueError(
                f"no Hadamard source for order {d}: native generation is "
                "Sylvester-only (powers of two); import one with --hadamard"
            )
        h = sylvester(d.bit_length() - 1)
    try:
        alpha = Fraction(args.alpha) if args.alpha else None
    except ZeroDivisionError:
        raise ValueError(f"--alpha {args.alpha}: zero denominator") from None
    return construction.build(h, alpha=alpha)


# -- commands --------------------------------------------------------------------


def cmd_generate(args) -> int:
    con = _load_construction(args)
    points = [con.vertex_representative(i, 1) for i in range(con.m)]
    points += [con.vertex_representative(i, -1) for i in range(con.m)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_points(args.format, con, points, fh)
    else:
        _write_points(args.format, con, points, sys.stdout)
    return 0


def _write_points(fmt, con, points, fh):
    if fmt == "ext":
        write_ext(points, con.d, fh)
    else:
        write_vertices_json(con, points, fh)


def cmd_certify(args) -> int:
    start = time.monotonic()
    cap = _row_cap(args)
    con = _load_construction(args)
    report = certificate.verify_conditions(
        con,
        mode="auto" if args.sample is None else "sample",
        row_cap=cap,
        sample_rows=100_000 if args.sample is None else args.sample,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.emit_certificates:
        _dump_certificates(con, report, args)
    counts = {
        "blocks": [
            {
                "l": b.l,
                "rows_total": b.rows_total,
                "rows_checked": b.rows_checked,
                "sampled": b.sampled,
                "max_abs_entry": frac_str(b.max_abs_entry),
                "coefficient_sum": frac_str(b.coefficient_sum),
            }
            for b in report.blocks
        ],
        "rows_checked": sum(b.rows_checked for b in report.blocks),
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "condition_c": report.condition_c,
        "max_abs_entry": frac_str(report.max_abs_entry),
    }
    doc = _report_doc(
        command=_command_line("certify", args),
        con=con,
        k=report.k,
        check="certificate",
        mode=report.mode,
        counts=counts,
        min_margin=None,
        seed=report.seed,
        failures=[
            {"block": l, "row": idx, "reason": reason}
            for l, idx, reason in report.failures
        ],
        duration=round(time.monotonic() - start, 3),
    )
    _emit(doc, args.out)
    return 0 if report.passed else 3


def _dump_certificates(con, report, args) -> None:
    """Write the combination certificates of the rows the sweep checked.

    Per block, the first min(--emit-limit, rows_checked) rows in sweep order.
    """
    tasks = chain.from_iterable(
        zip(repeat(block.l), islice(
            certificate.block_sweep_indices(
                con.d, con.k, block.l, block.sampled, report.sample_rows,
                report.seed),
            min(args.emit_limit, block.rows_checked),
        ))
        for block in report.blocks
    )
    docs = list(ordered_map(_certificate_doc, con, tasks, args.jobs))
    with open(args.emit_certificates, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "kind": "certificates", "items": docs},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def _certificate_doc(con, task) -> dict:
    l, index = task
    cert = certificate.expand_combination(con, l, index)
    return {
        "block": cert.block,
        "row": index,
        "target": [frac_str(v) for v in cert.target],
        "mu_terms": [
            {"mu": frac_str(mu), "delta": list(delta)}
            for mu, delta in cert.mu_terms
        ],
        "nus": [frac_str(v) for v in cert.nus],
        "eps": frac_str(cert.eps),
    }


def cmd_verify(args) -> int:
    start = time.monotonic()
    cap = _row_cap(args)
    con = _load_construction(args)
    k = con.k if args.k is None else args.k
    common = dict(
        k=k, mode=args.mode, cap=cap, samples=args.samples,
        seed=args.seed, jobs=args.jobs,
    )
    if args.check == "faces":
        rep = oracle.verify_k_neighborly(con, **common)
        counts = {
            "enumerated": rep.enumerated,
            "checked": rep.checked,
            "passed": rep.passed,
            "failed": rep.failed,
        }
        min_margin = rep.min_margin
        failed = rep.failed > 0
        failures = [
            {"subset": list(map(list, sub)), "status": status,
             "margin": None if margin is None else frac_str(margin)}
            for sub, status, margin in rep.failures
        ]
    elif args.check == "dominant":
        rep = oracle.dominant_subset_sweep(con, **common)
        counts = {
            "subsets_checked": rep.subsets_checked,
            "patterns_checked": rep.patterns_checked,
            "dominant_found": rep.dominant_found,
        }
        min_margin = rep.min_margin
        failed = rep.dominant_found > 0
        failures = []
        if rep.first_dominant:
            idxs, signs, margin = rep.first_dominant
            failures.append(
                {"indices": list(idxs), "signs": list(signs),
                 "margin": frac_str(margin)}
            )
    else:
        rep = oracle.projection_containment(con, **common)
        counts = {"vertices_checked": rep.vertices_checked}
        min_margin = rep.min_margin
        failed = not rep.contained
        failures = (
            []
            if rep.contained
            else [{"block": rep.min_at[0], "row": rep.min_at[1],
                   "margin": frac_str(rep.min_margin)}]
        )

    doc = _report_doc(
        command=_command_line("verify", args),
        con=con,
        k=rep.k,
        check=args.check,
        mode=args.mode,
        counts=counts,
        min_margin=min_margin,
        seed=rep.seed,
        failures=failures,
        duration=round(time.monotonic() - start, 3),
    )
    _emit(doc, args.out)
    # beyond the guaranteed neighborliness the sweep is reporting-only
    return 3 if failed and k <= con.k else 0


def cmd_hadamard(args) -> int:
    if args.order is not None:
        order = args.order
        if order < 1 or order & (order - 1):
            raise ValueError(
                f"no native generation for order {order} (Sylvester only); "
                "import a matrix with --import"
            )
        h = sylvester(order.bit_length() - 1)
        source = f"sylvester order {order}"
    else:
        h = load_hadamard(args.import_path)
        source = args.import_path
    sys.stdout.write(f"valid Hadamard matrix of order {h.order} ({source})\n")
    if args.profile:
        prof = row_profile(h)
        for i, (plus, total) in enumerate(prof.per_row):
            sys.stdout.write(f"row {i}: +1 entries {plus}, sum {total}\n")
        sys.stdout.write(f"regular: {'yes' if prof.regular else 'no'}\n")
    return 0


def _command_line(name, args) -> str:
    parts = ["csneighborly", name]
    if args.hadamard is not None:
        parts += ["--hadamard", args.hadamard]
    else:
        parts += ["--d", str(args.d)]
    if args.alpha:
        parts += ["--alpha", args.alpha]
    if name == "verify":
        parts += ["--check", args.check, "--mode", args.mode]
        if args.k is not None:
            parts += ["--k", str(args.k)]
        if args.mode == "sample":
            parts += ["--samples", str(args.samples), "--seed", str(args.seed)]
    if name == "certify" and args.sample is not None:
        parts += ["--sample", str(args.sample), "--seed", str(args.seed)]
    if args.cap is not None or "NEIGHBORLY_MAX_ROWS" in os.environ:
        parts += ["--cap", str(_row_cap(args))]
    return " ".join(parts)


# -- parser ----------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csneighborly",
        description=(
            "Construct centrally symmetric polytopes from Hadamard matrices "
            "and verify their neighborliness with exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--d", type=int,
                            help="dimension (power of two >= 4)")
        source.add_argument("--hadamard", help="Hadamard matrix file to import")
        p.add_argument("--alpha", help="override the scale alpha (rational p/q)")

    p_gen = sub.add_parser("generate", help="write the 4d vertices")
    add_source(p_gen)
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.add_argument("--format", choices=("ext", "json"), default="ext")
    p_gen.set_defaults(func=cmd_generate)

    p_cert = sub.add_parser("certify", help="check the certificate conditions")
    add_source(p_cert)
    p_cert.add_argument("--sample", type=positive_int, default=None,
                        help="rows to sample per block (default: auto mode)")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--jobs", type=positive_int, default=1)
    p_cert.add_argument("--cap", type=positive_int, default=None,
                        help="exhaustive row cap per block (overrides "
                             "NEIGHBORLY_MAX_ROWS)")
    p_cert.add_argument("--emit-certificates", dest="emit_certificates",
                        help="dump combination certificates to this JSON file")
    p_cert.add_argument("--emit-limit", dest="emit_limit", type=positive_int,
                        default=1000, help="max certificates per block")
    p_cert.add_argument("--out", help="report path (default: stdout)")
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser("verify", help="run an oracle sweep")
    add_source(p_ver)
    p_ver.add_argument("--k", type=positive_int, default=None,
                       help="subset size (default: the guaranteed k)")
    p_ver.add_argument("--check", choices=("faces", "dominant", "containment"),
                       required=True)
    p_ver.add_argument("--mode", choices=("exhaustive", "sample"),
                       default="exhaustive")
    p_ver.add_argument("--samples", type=positive_int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=positive_int, default=1)
    p_ver.add_argument("--cap", type=positive_int, default=None,
                       help="exhaustive sweep cap (overrides "
                            "NEIGHBORLY_MAX_ROWS)")
    p_ver.add_argument("--out", help="report path (default: stdout)")
    p_ver.set_defaults(func=cmd_verify)

    p_had = sub.add_parser("hadamard", help="generate or import a Hadamard matrix")
    had_source = p_had.add_mutually_exclusive_group(required=True)
    had_source.add_argument("--order", type=int)
    had_source.add_argument("--import", dest="import_path")
    p_had.add_argument("--profile", action="store_true")
    p_had.set_defaults(func=cmd_hadamard)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes a value such as -1/3 for an option, so '--alpha -1/3'
    # is read as '--alpha=-1/3' for a negative alpha to reach its check
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens[-1:] == ["--alpha"] and re.match(r"-\.?\d", token):
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
