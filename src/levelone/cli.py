"""Command-line surface.

Subcommands: verify, classify, recognize, invariants, transport, random,
canonical.  Exit codes are a stable contract:

    0  pass / success
    1  verification failed, no limit, input not recognized, or the
       classifier's witness failed exact verification
    2  usage error, unreadable or malformed input, or input whose exponents
       pass the degree bound or whose dimension passes MAX_DIM
    3  domain precondition violated (abelian classify input, pole at the
       evaluation point)

All commands are deterministic given their flags; randomness enters only
through the --seed of ``random``.  Integer flags are read by
``jsonio.parse_integer``, so a literal past the digit bound fails like any
other integer input, and --density by ``jsonio.parse_decimal``, ASCII
digits only.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import invariant_vector, random_algebra
from .canonical import CanonicalForm, Tag, construct
from .classify import ClassifierConfig, classify
from .errors import (
    AbelianInput,
    DegreeOverflow,
    NoLimit,
    PoleAtPoint,
    SearchExhausted,
)
from .jsonio import (
    algebra_from_dict,
    canonical_form_from_dict,
    check_dimension,
    dumps,
    family_from_dict,
    family_to_dict,
    invariants_to_dict,
    load_path,
    parse_decimal,
    parse_integer,
    parse_rational,
    recognition_to_dict,
    report_document,
    save_path,
    shown,
    witness_from_dict,
    witness_to_dict,
)
from .recognize import recognize
from .transport import (
    Witness,
    random_family,
    transport_at,
    transport_limit,
    verify_degeneration,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelone",
        description="Exact workbench for structure-constant algebras, "
        "degeneration witnesses and the level-one canonical forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # {name: its parser}, for main's one parse

    p = sub.add_parser("verify", help="check a degeneration witness exactly")
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--family", help="family JSON file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--target", help="canonical-form JSON file")
    group.add_argument(
        "--target-canonical",
        metavar="SPEC",
        help="inline target, e.g. lambda2:5 or nu:4:2/3",
    )
    p.add_argument("--witness", help="witness JSON file, as classify --out writes it; "
                   "takes the place of --family and the target")
    p.add_argument("--up-to-iso", action="store_true",
                   help="compare via recognition instead of entrywise")
    p.add_argument("--json", action="store_true")
    p.set_defaults(check=functools.partial(_check_verify_sources, p))

    p = sub.add_parser("classify", help="produce a verified degeneration witness")
    p.add_argument("--algebra", required=True)
    p.add_argument("--seed", default="0", help="accepted for compatibility; no effect")
    p.add_argument("--out", help="write the witness JSON here instead of stdout")

    p = sub.add_parser("recognize", help="match an algebra against the canonical forms")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invariants", help="basis-change invariants of an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("transport", help="apply a parametric family to an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--family", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--limit", action="store_true", help="entrywise limit at t = 0")
    group.add_argument("--at", metavar="T0", help="specialize at a rational point")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("random", help="seed-deterministic random inputs")
    p.add_argument("--kind", choices=("algebra", "family"), default="algebra")
    p.add_argument("--dim", required=True)
    p.add_argument("--density", default="0.4", help="algebra kind only")
    p.add_argument("--pole-bound", default="1", help="family kind only")
    p.add_argument("--seed", required=True)
    p.add_argument("--non-abelian", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("canonical", help="emit a canonical algebra")
    p.add_argument("--name", required=True, choices=[t.value for t in Tag])
    p.add_argument("--dim", required=True)
    p.add_argument("--alpha", help="rational scalar, nu only")
    p.add_argument("--out")

    return parser


def _check_verify_sources(p: argparse.ArgumentParser, args) -> None:
    """Either --witness alone, or --family with one target option; argparse's
    groups cannot say so, so the errors are raised here in its words."""
    if args.witness is not None:
        for flag in ("family", "target", "target_canonical"):
            if getattr(args, flag) is not None:
                option = "--" + flag.replace("_", "-")
                p.error(f"argument --witness: not allowed with argument {option}")
    elif args.family is None:
        p.error("the following arguments are required: --family")
    elif args.target is None and args.target_canonical is None:
        p.error("one of the arguments --target --target-canonical is required")


def parse_canonical_spec(spec: str) -> CanonicalForm:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad target spec {shown(spec)}, want name:dim[:alpha]")
    try:
        tag = Tag(parts[0])
    except ValueError:
        raise ValueError(f"bad canonical tag {shown(parts[0])} in target spec") from None
    dim = parse_integer(parts[1])
    alpha = parse_rational(parts[2]) if len(parts) == 3 else None
    return CanonicalForm(tag, dim, alpha)


def _emit(doc, out: str | None) -> None:
    """Write a document for ``dumps`` (an Algebra value too) to the file
    ``out``, or to stdout."""
    if out:
        save_path(out, doc)
    else:
        sys.stdout.write(dumps(doc))


def cmd_verify(args) -> int:
    a = algebra_from_dict(load_path(args.algebra))
    if args.witness is not None:
        witness = witness_from_dict(load_path(args.witness))
    else:
        family = family_from_dict(load_path(args.family))
        if args.target is not None:
            target = canonical_form_from_dict(load_path(args.target))
        else:
            target = parse_canonical_spec(args.target_canonical)
        witness = Witness(family, target)
    report = verify_degeneration(a, witness, up_to_iso=args.up_to_iso)
    if args.json:
        sys.stdout.write(dumps(report_document(report)))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    cfg = ClassifierConfig(seed=parse_integer(args.seed))
    a = algebra_from_dict(load_path(args.algebra))
    witness = classify(a, cfg)  # verified inside
    _emit(witness_to_dict(witness), args.out)
    print(
        f"classified onto {witness.target.describe()}; witness verified",
        file=sys.stderr,
    )
    return 0


def cmd_recognize(args) -> int:
    a = algebra_from_dict(load_path(args.algebra))
    result = recognize(a)
    if args.json:
        sys.stdout.write(dumps(recognition_to_dict(result)))
    elif result.recognized:
        note = f" ({result.reason})" if result.reason else ""
        print(f"recognized: {result.form.describe()}{note}")
    else:
        print(f"not canonical: {result.reason}")
    return 0 if result.recognized else 1


def cmd_invariants(args) -> int:
    a = algebra_from_dict(load_path(args.algebra))
    iv = invariant_vector(a)
    doc = invariants_to_dict(iv)
    if args.json:
        sys.stdout.write(dumps(doc))
    else:
        for key in ("dim", "power_dims", "commutative", "anticommutative",
                    "nilpotent", "sym_rank", "skew_rank"):
            if key in doc:
                print(f"{key}: {doc[key]}")
    return 0


def cmd_transport(args) -> int:
    a = algebra_from_dict(load_path(args.algebra))
    family = family_from_dict(load_path(args.family))
    if args.at is not None:
        _emit(transport_at(a, family, parse_rational(args.at)), None)
        return 0
    try:
        limit = transport_limit(a, family)
    except NoLimit as exc:
        doc = {"limit": None, "poles": [list(e) for e in exc.entries]}
        if args.json:
            sys.stdout.write(dumps(doc))
        else:
            print(str(exc))
        return 1
    _emit(limit, None)
    return 0


def cmd_random(args) -> int:
    n = check_dimension(parse_integer(args.dim))
    seed = parse_integer(args.seed)
    density = parse_decimal(args.density)
    if args.kind == "algebra":
        a = random_algebra(n, density, seed, args.non_abelian)
        _emit(a, args.out)
    else:
        pm = random_family(n, parse_integer(args.pole_bound), seed)
        _emit(family_to_dict(pm), args.out)
    return 0


def cmd_canonical(args) -> int:
    alpha = parse_rational(args.alpha) if args.alpha is not None else None
    form = CanonicalForm(Tag(args.name), check_dimension(parse_integer(args.dim)), alpha)
    _emit(construct(form), args.out)
    return 0


def _parse_argv(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one parse: argv that starts
    with a known command is read by that command's parser alone, and its
    leftovers are refused by the top-level parser, as the nested parse
    does.  Anything else (no command, help, an unknown command, a leading
    "--") goes to the top-level parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        if hasattr(args, "check"):
            args.check(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # the handler is looked up per call, so a rebound cmd_* is honoured
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (AbelianInput, PoleAtPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, DegreeOverflow) as exc:  # ParseError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
