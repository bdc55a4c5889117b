"""Command-line front end.

Subcommands: bounds (dimensional bound table as CSV/JSON), verify-sic,
mutinfo, power, minent, scrooge. Exit codes: 0 success, 1 semantic failure
(e.g. a set that is not SIC), 2 usage or parse error.
"""

import argparse
import functools
import json
import sys

from . import infotheory, optimize, sic, states
from .errors import InfopowerError

BUILTIN_OBJECTS = {
    "tetrahedral": sic.tetrahedral_povm,
    "antitetrahedral": sic.antitetrahedral_ensemble,
    "qutrit": sic.qutrit_sic_povm,
    "qutrit-orthonormal": sic.qutrit_orthonormal_ensemble,
}

_ASYMPTOTE_COMMENT = (
    f"# asymptotes: scrooge_lower->{infotheory.scrooge_asymptote():.6f}, sic_upper->1.0"
)
_PG_NOTE = (
    "# pg_sic_value: direct evaluation of the SIC pretty-good joint distribution;"
    " the closed-form variant (2d/(d^2(d+1)))log d - ((d-1)/(d^2(d+1)))log(d+1)"
    f" disagrees ({infotheory.pg_sic_closed_form(2):.6f} vs {infotheory.pg_sic_value(2):.6f}"
    " at d=2) and is not used"
)


def _load_object(spec_str):
    """Resolve 'builtin:NAME' or a JSON file path into an Ensemble or Povm."""
    if spec_str.startswith("builtin:"):
        name = spec_str.split(":", 1)[1]
        if name not in BUILTIN_OBJECTS:
            raise InfopowerError(
                f"unknown builtin {name!r}; choose from {sorted(BUILTIN_OBJECTS)}"
            )
        return BUILTIN_OBJECTS[name]()
    return states.load(spec_str)


def _load_povm(args) -> states.Povm:
    if args.builtin:
        obj = _load_object(f"builtin:{args.builtin}")
    elif args.fiducial:
        obj = sic.wh_covariant_povm(states.load_fiducial(args.fiducial))
    else:
        obj = _load_object(args.povm)
    if not isinstance(obj, states.Povm):
        raise InfopowerError("expected a POVM, got an ensemble")
    return obj


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_bounds(args) -> int:
    infotheory._check_count(args.dmax, 2, InfopowerError, "--dmax")
    rows = [infotheory.bounds_for_dimension(d) for d in range(2, args.dmax + 1)]
    if args.format == "json":
        text = json.dumps([b.to_json_dict() for b in rows], indent=2) + "\n"
    else:
        lines = ["d,holevo,sic_upper,scrooge_lower,rastegin_cond,pg_sic_value"]
        for b in rows:
            lines.append(
                f"{b.dim},{b.holevo:.6f},{b.sic_upper:.6f},{b.scrooge_lower:.6f},"
                f"{b.rastegin_cond:.6f},{b.pg_sic_value:.6f}"
            )
        lines.append(_ASYMPTOTE_COMMENT)
        lines.append(_PG_NOTE)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify_sic(args) -> int:
    obj = _load_object(f"builtin:{args.builtin}" if args.builtin else args.path)
    elements = obj.effects if isinstance(obj, states.Povm) else obj.states
    cert = sic.is_sic(elements)
    text = json.dumps(cert.to_json_dict(), indent=2) + "\n"
    if args.format != "json":
        verdict = "PASS" if cert.passes else "FAIL"
        text = (
            f"{verdict}: d={cert.dim} elements={cert.element_count} "
            f"lambda={cert.lam:.6f} trace_dev={cert.max_trace_deviation:.3e} "
            f"pairwise_dev={cert.max_pairwise_deviation:.3e}\n" + text
        )
    _emit(text, args.out)
    return 0 if cert.passes else 1


def cmd_mutinfo(args) -> int:
    ensemble = _load_object(args.ensemble)
    povm = _load_object(args.povm)
    if not isinstance(ensemble, states.Ensemble) or not isinstance(povm, states.Povm):
        raise InfopowerError("mutinfo needs an ensemble and a POVM, in that order")
    joint = infotheory.joint_distribution(ensemble, povm)
    info = infotheory.mutual_information(joint)
    report = {
        "I": info,
        "H_X": joint.entropy_x(),
        "H_Y": joint.entropy_y(),
        "H_XY": joint.entropy_joint(),
        "H_Y_given_X": joint.entropy_y_given_x(),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = (
            f"I={info:.6f}\nH(X)={report['H_X']:.6f}\nH(Y)={report['H_Y']:.6f}\n"
            f"H(X,Y)={report['H_XY']:.6f}\nH(Y|X)={report['H_Y_given_X']:.6f}\n"
        )
    _emit(text, args.out)
    return 0


def cmd_search(args) -> int:
    """power and minent: run the multi-start search optimize.<args.search> on the POVM."""
    search = getattr(optimize, args.search)
    report = search(_load_povm(args), starts=args.starts, seed=args.seed)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_scrooge(args) -> int:
    value = optimize.scrooge_lower_bound_estimate(args.dim, args.samples, args.seed)
    report = {
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": value,
        "closed_form": infotheory.scrooge_lower(args.dim),
        "rng_algorithm": optimize.RNG_ALGORITHM,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _add_povm_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=sorted(BUILTIN_OBJECTS))
    group.add_argument("--povm", help="path to a POVM JSON file")
    group.add_argument("--fiducial", help="path to a fiducial vector JSON file")


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand's defaults name its handler in this module
    (func) and, for power and minent, its search in optimize (search)."""
    parser = argparse.ArgumentParser(
        prog="infopower",
        description="Information extraction bounds and optimizers for quantum "
        "ensembles and measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="dimensional bound table")
    p_bounds.add_argument("--dmax", type=int, required=True)
    p_bounds.set_defaults(func="cmd_bounds")

    p_verify = sub.add_parser("verify-sic", help="certify the SIC conditions")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=sorted(BUILTIN_OBJECTS))
    group.add_argument("path", nargs="?", help="ensemble/POVM JSON file")
    p_verify.set_defaults(func="cmd_verify_sic")

    p_mi = sub.add_parser("mutinfo", help="mutual information of a pair")
    p_mi.add_argument("ensemble", help="ensemble JSON file or builtin:NAME")
    p_mi.add_argument("povm", help="POVM JSON file or builtin:NAME")
    p_mi.set_defaults(func="cmd_mutinfo")

    for name, search, help_text in (
        ("power", "informational_power_lower_bound", "informational power lower bound"),
        ("minent", "min_output_entropy", "minimal outcome entropy over pure states"),
    ):
        p_search = sub.add_parser(name, help=help_text)
        _add_povm_source(p_search)
        p_search.add_argument("--starts", type=int, default=100)
        p_search.add_argument("--seed", type=int, default=0)
        p_search.set_defaults(func="cmd_search", search=search)

    p_scrooge = sub.add_parser("scrooge", help="Monte-Carlo information floor")
    p_scrooge.add_argument("--dim", type=int, required=True)
    p_scrooge.add_argument("--samples", type=int, required=True)
    p_scrooge.add_argument("--seed", type=int, default=0)
    p_scrooge.set_defaults(func="cmd_scrooge")

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to a file")
    # power, minent and scrooge always print a JSON report
    for sp in (p_bounds, p_verify, p_mi):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up at dispatch: a handler rebound after the parser was built is called
        return globals()[args.func](args)
    except (InfopowerError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
