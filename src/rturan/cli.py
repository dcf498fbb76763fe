"""Command-line surface: spectra, bounds, constructions, verifications, and
brute-force extremal search.  JSON output is the machine contract; tables are
for reading.  Exit codes: 0 success, 1 verification FAIL, 2 usage error,
3 budget exhausted."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, _kernels
from .bounds import (AugmentedTree, caterpillar_bounds, augment_caterpillar,
                     augment_kary, augment_double_star, binary_coefficients,
                     ds_1_odd_exact, ds22_bounds, ds_k_unique_bounds,
                     ds_rainbow_bounds, kary_coefficients)
from .certs import (BUDGET_EXHAUSTED, FAIL, load_certificate,
                    save_certificate, default_cache_dir)
from .graphs import (Graph, GraphError, make_broom, make_caterpillar,
                     make_complete, make_cycle, make_double_star, make_path,
                     make_perfect_kary)
from .search import (RAINBOW, brute_extremal, recheck_certificate,
                     verify_k2s4_construction, verify_k6_rainbow_free,
                     verify_k6_universal_3unique, verify_reduction)
from .spectrum import compute_spectrum, ds_spectrum_closed_form

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class SpecError(ValueError):
    """A usage error: main reports it as one line and exits 2."""


# integer tokens after each keyword head; CAT's one token is a comma list
_FAMILY_ARITY = {"DS": 2, "B": 2, "CAT": 1, "T": 2}
_AUGMENT_ARITY = {"DS": 3, "CAT": 1, "T": 2}

_BUILDERS = {"P": make_path, "C": make_cycle, "K": make_complete,
             "DS": make_double_star, "B": make_broom, "CAT": make_caterpillar,
             "T": make_perfect_kary}
_AUGMENTERS = {"DS": augment_double_star, "CAT": augment_caterpillar,
               "T": augment_kary}


def parse_spec(tokens: list[str],
               arity: dict[str, int] = _FAMILY_ARITY) -> tuple[str, list]:
    """Split a family spec into its head and integer arguments.

    P<k>, C<k> and K<n> carry their number in the head token.  A keyword
    head takes exactly arity[head] further tokens; CAT's is a comma list,
    returned as one list of ints.
    """
    if not tokens:
        raise SpecError("missing family spec")
    spec = " ".join(tokens)
    head = tokens[0].upper()
    try:
        if head in arity:
            if len(tokens) != 1 + arity[head]:
                raise ValueError(f"{head} takes {arity[head]} argument(s)")
            if head == "CAT":
                return head, [[int(x) for x in tokens[1].split(",")]]
            return head, [int(x) for x in tokens[1:]]
        if len(head) > 1 and head[0] in "PCK" and len(tokens) == 1:
            return head[0], [int(head[1:])]
    except ValueError as exc:
        raise SpecError(f"bad family spec {spec!r}: {exc}") from exc
    raise SpecError(f"unrecognized family spec {spec!r}")


def parse_family(tokens: list[str], graph_file: str | None = None) -> tuple[str, Graph]:
    """Family grammar: P<k>, C<k>, K<n>, DS <r> <s>, B <k> <r>,
    CAT <c1,...,ck>, T <k> <d>; or a JSON graph file."""
    if graph_file:
        if tokens:
            raise SpecError(f"a family spec and --graph-file exclude each "
                            f"other: {' '.join(tokens)!r}")
        obj = json.loads(Path(graph_file).read_text())
        return f"file:{graph_file}", Graph.from_json(obj)
    head, vals = parse_spec(tokens)
    name = " ".join([tokens[0].upper(), *tokens[1:]])
    try:
        return name, _BUILDERS[head](*vals)
    except GraphError as exc:
        raise SpecError(f"bad family spec {' '.join(tokens)!r}: {exc}") from exc


def parse_augment(tokens: list[str]) -> AugmentedTree:
    """Augment grammar: DS <r> <s> <l>, CAT <c1,...,ck>, T <k> <d>."""
    head, vals = parse_spec(tokens, _AUGMENT_ARITY)
    if head not in _AUGMENTERS:
        raise SpecError(f"bad augment spec {' '.join(tokens)!r}: expected "
                        "DS <r> <s> <l>, CAT <c1,...,ck> or T <k> <d>")
    return _AUGMENTERS[head](*vals)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}n" if f.denominator == 1 else f"{f.numerator}n/{f.denominator}"


def emit(args, obj: dict, table_lines: list[str]) -> None:
    obj.setdefault("schema", 1)
    obj.setdefault("seed", args.seed)
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def cmd_spectrum(args) -> int:
    name, g = parse_family(args.family, args.graph_file)
    if args.closed_form:
        if not name.startswith("DS"):
            raise SpecError("--closed-form only applies to DS")
        _, r, s = name.split()
        spec = ds_spectrum_closed_form(int(r), int(s))
    else:
        spec = compute_spectrum(g, budget=args.budget)
    obj = spec.to_json()
    obj["family"] = name
    lines = [f"Spec({name}) = {{{', '.join(map(str, spec.values))}}}"
             + ("" if spec.exhaustive else "  [partial: budget exhausted]")]
    for v in spec.values:
        lines.append(f"  {v}-unique witness colors: {list(spec.witnesses[v].colors)}")
    emit(args, obj, lines)
    return EXIT_OK if spec.exhaustive else EXIT_BUDGET


def _report_lines(rep) -> str:
    flags = f"  [{', '.join(rep.assumptions)}]" if rep.assumptions else ""
    return f"  {rep.family}: {_frac_str(rep.coefficient)}{flags}"


def cmd_bounds(args) -> int:
    tokens = args.family
    head, vals = parse_spec(tokens)
    if args.k_unique is not None and head != "DS":
        raise SpecError("--k-unique only applies to DS")
    extra: dict = {}
    if head == "DS":
        r, s = vals
        if args.k_unique is not None:
            out = ds_k_unique_bounds(min(r, s), max(r, s), args.k_unique)
            reports = [out["lower"], out["upper"]]
            extra["k"] = out["k"]
        else:
            reports = list(ds_rainbow_bounds(r, s))
            if (r, s) == (2, 2):
                reports = list(ds22_bounds())
            if min(r, s) == 1 and max(r, s) % 2 == 1:
                reports.append(ds_1_odd_exact((max(r, s) - 1) // 2))
    elif head == "CAT":
        out = caterpillar_bounds(vals[0])
        reports = [out["literal"], out["constructive"]]
        extra = {"augmented_edges": out["augmented_edges"],
                 "discrepancy": out["discrepancy"]}
    elif head == "T":
        k, d = vals
        if k == 2:
            out = binary_coefficients(d)
            reports = [out["literal"], out["proof_form"], out["constructive"]]
        else:
            out = kary_coefficients(k, d)
            reports = [out["literal"], out["constructive"]]
        extra = {"augmented_edges": out["augmented_edges"],
                 "discrepancy": out["discrepancy"]}
    else:
        raise SpecError(f"no bound family for spec {' '.join(tokens)!r}")
    obj = {"family_spec": " ".join(tokens),
           "bounds": [rep.to_json() for rep in reports], **extra}
    lines = [f"bounds for {' '.join(tokens)}:"]
    lines += [_report_lines(rep) for rep in reports]
    if extra.get("discrepancy"):
        lines.append("  note: literal and constructive formulas disagree "
                     "(known internal conflict; both reported)")
    emit(args, obj, lines)
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.augment:
        if args.graph_file:
            raise SpecError("--augment builds from a spec, not --graph-file")
        aug = parse_augment(args.family)
        obj = {"original": aug.original.to_json(),
               "augmented": aug.augmented.to_json(),
               "construction_log": [list(x) for x in aug.construction_log],
               "edge_count": aug.edge_count,
               "embedding": aug.embedding.to_json()}
        emit(args, obj, [json.dumps(obj, sort_keys=True)])
        return EXIT_OK
    name, g = parse_family(args.family, args.graph_file)
    obj = g.to_json()
    obj["family"] = name
    emit(args, obj, [json.dumps(obj, sort_keys=True)])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.recheck:
        if args.check is not None:
            raise SpecError(f"--recheck FILE takes no check: {args.check}")
        cert = load_certificate(args.recheck)
        ok, detail = recheck_certificate(cert)
        emit(args, {"recheck": ok, "detail": detail, "kind": cert.kind},
             [f"recheck {cert.kind}: {'OK' if ok else 'FAILED'} ({detail})"])
        return EXIT_OK if ok else EXIT_FAIL
    if args.check is None:
        raise SpecError("verify needs a check name or --recheck FILE")
    cert = args.run(args)
    cert.seed = args.seed if cert.seed is None else cert.seed
    path = save_certificate(cert, args.cache_dir)
    emit(args, cert.to_json(),
         [f"{args.check}: {cert.verdict}  (certificate: {path})"])
    if cert.verdict == FAIL:
        return EXIT_FAIL
    if cert.verdict == BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_OK


def _verify_reduction(args):
    aug = parse_augment(args.spec)
    return verify_reduction(aug.original, aug, aug.k, budget=args.budget)


def cmd_search(args) -> int:
    _, f = parse_family(args.pattern.split(), None)
    k = RAINBOW if args.rainbow else args.k
    out = brute_extremal(args.n, f, k, budget=args.budget)
    if out.get("value") is None:
        obj = {"bracket": {"lower": out["lower"], "upper": out["upper"]}}
        lines = [f"budget exhausted: value within [{out['lower']}, {out['upper']}]"]
        code = EXIT_BUDGET
    else:
        obj = {"value": out["value"]}
        lines = [f"value = {out['value']}"]
        code = EXIT_OK
    if out.get("lower_witness"):
        path = save_certificate(out["lower_witness"], args.cache_dir)
        obj["lower_witness"] = str(path)
    if out.get("upper_exhaustion"):
        path = save_certificate(out["upper_exhaustion"], args.cache_dir)
        obj["upper_exhaustion"] = str(path)
    obj.update({"n": args.n, "pattern": args.pattern, "k": str(k)})
    emit(args, obj, lines)
    return code


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


class _Parser(argparse.ArgumentParser):
    """One `rturan: <message>` line and exit 2 on a usage error, and no
    abbreviated long flags; subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"rturan: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rturan",
                                description="rainbow / k-unique Turan workbench "
                                            f"(kernel backend: {_kernels.BACKEND})")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--budget", type=_at_least(0), default=None,
                   help="node-count limit")
    p.add_argument("--cache-dir", default=None,
                   help="directory certificates are written to, each named by "
                        f"the hash of its kind and params (default {default_cache_dir()})")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="k-spectrum of a family graph")
    sp.add_argument("family", nargs="*")
    sp.add_argument("--graph-file")
    sp.add_argument("--closed-form", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("bounds", help="bound formulas for a family")
    bp.add_argument("family", nargs="*")
    bp.add_argument("--k-unique", type=int, default=None, metavar="L",
                    help="pendant-recoloring parameter l")
    bp.set_defaults(func=cmd_bounds)

    cp = sub.add_parser("construct", help="emit a family graph as JSON")
    cp.add_argument("family", nargs="*")
    cp.add_argument("--graph-file")
    cp.add_argument("--augment", action="store_true")
    cp.set_defaults(func=cmd_construct)

    vp = sub.add_parser("verify", help="run a certified check")
    vp.add_argument("--recheck", metavar="FILE")
    vp.set_defaults(func=cmd_verify)
    # each check owns its flags, so a flag of another check is refused
    checks = vp.add_subparsers(dest="check", metavar="CHECK")
    checks.add_parser(
        "k6-rainbow-free", help="the 1-factorized K_6 has no rainbow DS_{2,2}",
    ).set_defaults(run=lambda args: verify_k6_rainbow_free())
    k6p = checks.add_parser(
        "k6-universal-3unique",
        help="every non-rainbow proper coloring of K_6 holds an exactly-3-unique DS_{2,2}")
    k6p.add_argument("--color-cap", type=_at_least(1), default=7)
    k6p.add_argument("--samples", type=_at_least(0), default=1_000_000)
    k6p.set_defaults(run=lambda args: verify_k6_universal_3unique(
        budget=args.budget, color_cap=args.color_cap,
        sample_count=args.samples, seed=args.seed))
    k2p = checks.add_parser(
        "k2s4", help="the 1-factorized K_{2s+4} has no rainbow DS_{1,2s+1}")
    k2p.add_argument("--s", type=int, required=True)
    k2p.set_defaults(run=lambda args: verify_k2s4_construction(args.s))
    rp = checks.add_parser(
        "reduction", help="every proper coloring of an augmented tree holds "
                          "a k-unique copy of the original")
    rp.add_argument("spec", nargs="+",
                    help="DS <r> <s> <l>, CAT <c1,...,ck> or T <k> <d>")
    rp.set_defaults(run=_verify_reduction)

    spp = sub.add_parser("search", help="brute-force ex_k at desk scale")
    spp.add_argument("--n", type=_at_least(0), required=True)
    spp.add_argument("--pattern", required=True)
    kp = spp.add_mutually_exclusive_group(required=True)
    kp.add_argument("--rainbow", action="store_true")
    kp.add_argument("--k", type=int, default=None)
    spp.set_defaults(func=cmd_search)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or EXIT_OK  # EXIT_USAGE from _Parser.error
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the library rejects bad input with ValueError (SpecError, GraphError
        # and ColoringError among them); OSError is an unreadable file
        print(f"rturan: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
