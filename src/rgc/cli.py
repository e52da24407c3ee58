"""Command-line surface: design generation, code building, file-based
encode/repair/reconstruct, tradeoff analysis, and simulation.

Each command is declared once: its subparser carries its flags and,
through set_defaults, its handler, which cli_dispatch calls.

Exit codes: 0 success, 1 domain error (one-line message on stderr),
2 usage error.  Randomized paths are seeded and reproducible; builds
with identical inputs produce byte-identical spec files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, codec, codespec, construction, designs, storesim


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_message(spec: codespec.CodeSpec,
                  path: str) -> codec.MessageVector:
    with open(path, "r", encoding="utf-8") as fh:
        return codec.MessageVector.from_text(spec.field.q, fh.read())


def _share_path(directory: str, disk: int) -> str:
    return os.path.join(directory, f"disk_{disk}.share")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, "
                         f"got {text!r}") from None


def modulus(text: str) -> int | str:
    """argparse type of --q: a decimal modulus or 'auto'."""
    return text if text == "auto" else int(text)


def rational(text: str):
    """argparse type of --epsilon, a Fraction; argparse reports a
    ValueError, so a zero denominator becomes one."""
    from fractions import Fraction  # only analyze exponents parses one
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _cmd_design_gen(args) -> int:
    if args.steiner_triple:
        design = designs.gen_steiner_triple(args.n)
    else:
        if args.t is None or args.r is None:
            args.usage_error("--complete requires --t and --r")
        design = designs.gen_complete_design(args.t, args.r, args.n)
    _write_text(design.to_json() + "\n", args.out)
    return 0


def _cmd_design_verify(args) -> int:
    design = designs.load_design(args.design)
    report = designs.require_design(design)
    print(f"ok: S_{design.lam}({design.t},{design.r},{design.n}) with "
          f"{design.num_blocks} blocks; verified {report.checked_subsets} "
          f"subsets")
    return 0


def _cmd_code_build(args) -> int:
    design = designs.load_design(args.design)
    result = construction.build_code(design, args.k, q=args.q,
                                     seed=args.seed, budget=args.budget,
                                     sample=args.sample)
    spec = result.spec
    print(f"built code over GF({spec.field.q}): M={spec.params.M} "
          f"T={spec.params.T} alpha={spec.params.alpha} "
          f"attempts={result.attempts} structured={result.structured}",
          file=sys.stderr)
    _write_text(spec.to_json() + "\n", args.out)
    return 0


def _cmd_code_inspect(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    p = spec.params
    point = analysis.realized_point(p)
    cut = analysis.cutset_max_M(p.n, p.k, p.d, point.alpha_bar)
    rat = analysis.format_rational
    lines = [
        f"field: GF({spec.field.q})",
        f"design: S_{p.lam}({p.t},{p.r},{p.n}) with {p.nstar} blocks",
        f"n = {p.n}", f"k = {p.k}", f"d = {p.d}",
        f"alpha = {p.alpha}",
        f"beta = {p.beta if p.beta is not None else '-'}",
        f"gamma = {p.gamma}", f"M = {p.M}", f"T = {p.T}",
        "long parity form: " + ("matrix" if spec.phi is None else
                                f"coefficient vector {list(spec.phi)}"),
        f"alpha_bar = {rat(point.alpha_bar)}",
        f"M_bar = {rat(point.M_bar)}",
        f"cutset_max_M = {rat(cut)} (satisfied: {point.M_bar <= cut})",
    ]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_code_verify(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    report = construction.verify_S(spec, sample=args.sample, seed=args.seed)
    scope = "sampled" if report.sampled else "all"
    if not report.ok:
        first = report.failures[0]
        print(f"error: rank condition fails for erasure set {first} "
              f"({len(report.failures)} failing sets among "
              f"{report.checked} checked)", file=sys.stderr)
        return 1
    print(f"ok: rank condition holds on {scope} {report.checked} of "
          f"{report.total} erasure sets")
    return 0


def _cmd_encode(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    msg = _load_message(spec, args.message)
    shares = codec.encode(spec, msg)
    os.makedirs(args.out_dir, exist_ok=True)
    for share in shares:
        codec.write_share(spec, share, _share_path(args.out_dir,
                                                   share.disk))
    print(f"wrote {len(shares)} shares to {args.out_dir}")
    return 0


def _cmd_repair(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    # codec.repair decides which helper sets suffice
    paths = [_share_path(args.shares, disk)
             for disk in range(1, spec.params.n + 1) if disk != args.failed]
    helpers = [codec.read_share(spec, path) for path in paths
               if os.path.exists(path)]
    share, transcript = codec.repair(spec, args.failed, helpers)
    codec.write_share(spec, share, args.out)
    if args.transcript:
        doc = {"failed": transcript.failed,
               "total_symbols": transcript.total_symbols,
               "check_symbols": transcript.check_symbols,
               "helpers": [{"disk": h, "symbols": [list(s) for s in syms]}
                           for h, syms in transcript.helpers],
               "checks": [{"disk": h, "symbols": [list(s) for s in syms]}
                          for h, syms in transcript.checks]}
        _write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                    args.transcript)
    moved = transcript.total_symbols + transcript.check_symbols
    print(f"rebuilt disk {args.failed} from {transcript.helper_count} "
          f"helpers, {moved} symbols moved ({transcript.total_symbols} "
          f"copied, {transcript.check_symbols} read to check)")
    return 0


def _cmd_reconstruct(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    disks = _parse_int_list(args.disks)
    shares = [codec.read_share(spec, _share_path(args.shares, disk))
              for disk in disks]
    msg = codec.reconstruct(spec, shares)
    _write_text(msg.to_text(), args.out)
    return 0


def _cmd_analyze_tradeoff(args) -> int:
    rows = analysis.sweep_tradeoff(args.n, args.k, args.d)
    if args.format == "csv":
        _write_text(analysis.tradeoff_csv(rows), args.out)
    else:
        _write_text(json.dumps(analysis.tradeoff_json(rows), indent=2)
                    + "\n", args.out)
    return 0


def _cmd_analyze_exponents(args) -> int:
    entries = []
    for n in _parse_int_list(args.n_list):
        point = analysis.exponent_point(n, args.tau1, args.tau2,
                                        args.epsilon)
        member = analysis.exponent_region_membership(point.Er, point.Ed)
        entries.append((point, member))
    if args.format == "csv":
        _write_text(analysis.exponent_csv(entries), args.out)
    else:
        _write_text(json.dumps(analysis.exponent_json(entries), indent=2)
                    + "\n", args.out)
    return 0


def _cmd_analyze_compare(args) -> int:
    d1 = designs.load_design(args.design1)
    d2 = designs.load_design(args.design2)
    rep = analysis.compare_designs(d1, d2, args.k)
    if args.format == "json":
        doc = {"n": rep.n, "r": rep.r, "t": rep.t, "k": rep.k,
               "alpha_bar": analysis.format_fraction(rep.alpha_bar),
               "M_bar_design": analysis.format_fraction(rep.M_bar_design),
               "M_bar_complete":
                   analysis.format_fraction(rep.M_bar_complete),
               "T_design": rep.T_design, "T_complete": rep.T_complete,
               "equal": rep.equal, "deficit_uniform": rep.deficit_uniform}
        _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        rat = analysis.format_rational
        lines = [
            f"common point: alpha_bar = {rat(rep.alpha_bar)}",
            f"design code:    M_bar = {rat(rep.M_bar_design)} "
            f"(worst-case deficit T = {rep.T_design})",
            f"complete code:  M_bar = {rat(rep.M_bar_complete)} "
            f"(worst-case deficit T = {rep.T_complete})",
            f"equal: {rep.equal}; deficit uniform over the design: "
            f"{rep.deficit_uniform}",
        ]
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sim_run(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    msg = _load_message(spec, args.message)
    scenario = designs.load_json_file(args.scenario, "scenario",
                                      storesim.Scenario.from_json)
    report = storesim.run_scenario(spec, msg, scenario)
    _write_text(report.to_json() + "\n", args.out)
    return 0 if report.all_ok else 1


def _cmd_sim_soak(args) -> int:
    spec = codespec.CodeSpec.load(args.spec)
    msg = _load_message(spec, args.message)
    report = storesim.random_failure_soak(spec, msg, args.steps,
                                          seed=args.seed)
    _write_text(report.to_json() + "\n", args.out)
    return 0 if report.mismatches == 0 else 1


def _command(sub, name: str, handler, help: str):
    """Add a subcommand parser whose parsed args carry its handler."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgc",
        description="Layered design-based regenerating codes: build, "
                    "encode, repair, analyze, simulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="generate or verify designs")
    dsub = p_design.add_subparsers(dest="subcommand", required=True)
    p_gen = _command(dsub, "gen", _cmd_design_gen, "generate a block design")
    p_gen.set_defaults(usage_error=p_gen.error)
    family = p_gen.add_mutually_exclusive_group(required=True)
    family.add_argument("--steiner-triple", action="store_true",
                        help="Steiner triple system (t=2, r=3, lambda=1)")
    family.add_argument("--complete", action="store_true",
                        help="complete design: all r-subsets")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--t", type=int, default=None)
    p_gen.add_argument("--r", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_ver = _command(dsub, "verify", _cmd_design_verify,
                     "check the coverage property")
    p_ver.add_argument("--design", required=True)

    p_code = sub.add_parser("code", help="build or inspect code specs")
    csub = p_code.add_subparsers(dest="subcommand", required=True)
    p_build = _command(csub, "build", _cmd_code_build,
                       "derive params and long parity, verified")
    p_build.add_argument("--design", required=True)
    p_build.add_argument("--k", type=int, required=True)
    p_build.add_argument("--q", type=modulus, default="auto",
                         help="prime field modulus, or 'auto' for the "
                              "smallest prime over the existence threshold")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--budget", type=int, default=8,
                         help="max synthesis attempts")
    p_build.add_argument("--sample", type=int, default=None,
                         help="verify a seeded sample of erasure sets "
                              "instead of all of them; deriving T still "
                              "needs C(n,n-k) within the cap")
    p_build.add_argument("--out", default=None)
    p_insp = _command(csub, "inspect", _cmd_code_inspect,
                      "print parameters and normalized point")
    p_insp.add_argument("--spec", required=True)
    p_insp.add_argument("--out", default=None)
    p_cver = _command(csub, "verify", _cmd_code_verify,
                      "re-check the rank condition")
    p_cver.add_argument("--spec", required=True)
    p_cver.add_argument("--sample", type=int, default=None)
    p_cver.add_argument("--seed", type=int, default=0)

    p_enc = _command(sub, "encode", _cmd_encode, "write per-disk share files")
    p_enc.add_argument("--spec", required=True)
    p_enc.add_argument("--message", required=True,
                       help="whitespace-separated decimal symbols")
    p_enc.add_argument("--out-dir", required=True)

    p_rep = _command(sub, "repair", _cmd_repair,
                     "rebuild one disk's share file")
    p_rep.add_argument("--spec", required=True)
    p_rep.add_argument("--failed", type=int, required=True)
    p_rep.add_argument("--shares", required=True,
                       help="directory holding disk_<i>.share files")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--transcript", default=None,
                       help="write per-helper transfer JSON here")

    p_rec = _command(sub, "reconstruct", _cmd_reconstruct,
                     "decode the message from k or more share files")
    p_rec.add_argument("--spec", required=True)
    p_rec.add_argument("--shares", required=True)
    p_rec.add_argument("--disks", required=True,
                       help="comma-separated disk ids, k or more of them")
    p_rec.add_argument("--out", default=None)

    p_an = sub.add_parser("analyze", help="bounds, sweeps, comparisons")
    asub = p_an.add_subparsers(dest="subcommand", required=True)
    p_tr = _command(asub, "tradeoff", _cmd_analyze_tradeoff,
                    "sweep the storage-bandwidth tradeoff")
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.add_argument("--k", type=int, required=True)
    p_tr.add_argument("--d", type=int, required=True)
    p_tr.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tr.add_argument("--out", default=None)
    p_ex = _command(asub, "exponents", _cmd_analyze_exponents,
                    "finite-n exponent samples")
    p_ex.add_argument("--tau1", type=int, required=True)
    p_ex.add_argument("--tau2", type=int, required=True)
    p_ex.add_argument("--epsilon", type=rational, required=True,
                      help="rational in (0,1), e.g. 1/2")
    p_ex.add_argument("--n-list", required=True,
                      help="comma-separated n values")
    p_ex.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ex.add_argument("--out", default=None)
    p_cmp = _command(asub, "compare", _cmd_analyze_compare,
                     "design vs complete-design benchmark")
    p_cmp.add_argument("--design1", required=True)
    p_cmp.add_argument("--design2", required=True,
                       help="must be the complete design")
    p_cmp.add_argument("--k", type=int, required=True)
    p_cmp.add_argument("--format", choices=("text", "json"),
                       default="text")
    p_cmp.add_argument("--out", default=None)

    p_sim = sub.add_parser("sim", help="cluster simulation")
    ssub = p_sim.add_subparsers(dest="subcommand", required=True)
    p_run = _command(ssub, "run", _cmd_sim_run, "replay a scenario file")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--message", required=True)
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", default=None)
    p_soak = _command(ssub, "soak", _cmd_sim_soak,
                      "seeded fail/repair cycles")
    p_soak.add_argument("--spec", required=True)
    p_soak.add_argument("--message", required=True)
    p_soak.add_argument("--steps", type=int, required=True)
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.add_argument("--out", default=None)
    return parser


def cli_dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        # argparse usage errors exit 2; --help exits 0
        return exc.code if isinstance(exc.code, int) else 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
