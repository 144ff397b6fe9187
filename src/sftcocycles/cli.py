"""Command line interface: every operation over JSON files.

Inputs are small JSON documents (see the README for the schemas); the
output is a single JSON document on stdout, deterministic byte for byte
for identical inputs.  Exit codes: 0 success, 1 usage error, 2 input
validation failure, 3 negative verdict (not saturated, not a
coboundary, generator not fixed, non-minimal, regression mismatch),
4 bounds exhausted (unknown).
"""

import argparse
import json
import sys

from .sft import (
    TransitionMatrix,
    PointSpec,
    enumerate_words,
    higher_block,
    has_cycle_within,
    is_primitive,
)
from .locfun import (
    LocFun,
    BlockCode,
    FullGroupElement,
    TransferIdentityError,
    make_chi_H,
    psi_transfer,
)
from .groupoid import (
    Bisection,
    canonicalize,
    membership_split,
    generator_fixed,
    expectation_support,
    minimality_search,
    minimality_verdict,
)
from .support import (
    NotSaturatedError,
    sigma_family,
    inclusion_matrix,
    is_saturated,
)
from .coboundary import NotCoboundaryError, shortest_nonzero_cycle, solve_potential
from .suspension import suspended_matrix, reduce_to_first_coordinate, corner_partition_check
from .ktheory import ck_k_groups, dimension_report, perron_value

USAGE_ERROR, VALIDATION_ERROR, NEGATIVE_VERDICT, BOUND_EXHAUSTED = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, indent=2))


def _object(pairs):
    # json.load would keep only the last of two equal keys; refuse them.
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError("JSON object repeats the key %r" % key)
        doc[key] = value
    return doc


def _load_json(path):
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_object)


def _load_matrix(path):
    doc = _load_json(path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError("matrix file must be a JSON object with a 'matrix' key")
    return TransitionMatrix(doc["matrix"])


def _parse_word(text):
    """A word written as comma-separated ASCII digit strings, e.g. '1,2'.

    Spaces around each symbol are allowed; anything else (a sign, an
    underscore, a non-ASCII digit) is refused, naming the text.
    """
    if not text.strip():
        return ()
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError("word %r must be comma-separated symbols such as '1,2'" % text)
    return tuple(map(int, parts))


def _int_flag(text):
    """An integer flag: an optional '-' followed by ASCII digits.

    argparse's ``int`` would also take '+2', ' 2', '1_0' and '٢'; words
    are spelled in ASCII digits, and so are the numbers on the command
    line.  Anything else is a usage error.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _word_table(doc, what):
    """The object `doc` with its keys parsed as words, refusing two keys for one word."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be an object mapping words to integers" % what)
    table = {}
    for key, value in doc.items():
        word = _parse_word(key)
        if word in table:
            raise ValueError("%s key %r repeats the word %r" % (what, key, word))
        table[word] = value
    return table


def _parse_point(A, text):
    if ":" not in text:
        raise ValueError("point must be 'preperiod:period', e.g. '2,1:1,2'")
    pre, per = text.split(":", 1)
    return PointSpec(A, _parse_word(pre), _parse_word(per))


def _load_locfun(A, path):
    doc = _load_json(path)
    if not isinstance(doc, dict) or "depth" not in doc or "values" not in doc:
        raise ValueError("function file needs 'depth' and 'values'")
    return LocFun(A, doc["depth"], _word_table(doc["values"], "function 'values'"))


def _load_code(path):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError("code file must be a JSON object")
    kind = doc.get("kind", "sliding")
    if kind == "sliding":
        source = TransitionMatrix(doc["source"])
        target = TransitionMatrix(doc["target"])
        return BlockCode(source, target, doc["window"], _word_table(doc["table"], "code 'table'"))
    if kind == "full_group":
        matrix = TransitionMatrix(doc["matrix"])
        if not isinstance(doc["rules"], list):
            raise ValueError("code 'rules' must be a list of [src, dst] pairs")
        return FullGroupElement(matrix, doc["rules"])
    raise ValueError("unknown code kind %r" % kind)


def _build_parser():
    parser = _Parser(prog="sftcocycles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, *flags):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if "matrix" in flags:
            p.add_argument("--matrix", required=True)
        if "fn" in flags:
            p.add_argument("--fn", required=True)
        if "H" in flags:
            p.add_argument("--H", required=True)
        if "munu" in flags:
            p.add_argument("--mu", required=True)
            p.add_argument("--nu", required=True)
        return p

    add("validate", _cmd_validate, "matrix")
    p = add("words", _cmd_words, "matrix")
    p.add_argument("--m", type=_int_flag, required=True)
    p = add("higher-block", _cmd_higher_block, "matrix")
    p.add_argument("--K", type=_int_flag, required=True)
    add("saturated", _cmd_saturated, "matrix", "H")
    add("sigma-family", _cmd_sigma_family, "matrix", "H")
    p = add("inclusion-matrix", _cmd_inclusion_matrix, "matrix", "H")
    p.add_argument("--levels", type=_int_flag, default=3)
    add("suspend", _cmd_suspend, "matrix", "fn")
    add("split", _cmd_split, "matrix", "fn", "munu")
    add("fixed-generator", _cmd_fixed_generator, "matrix", "fn", "munu")
    add("expectation", _cmd_expectation, "matrix", "fn", "munu")
    p = add("minimal", _cmd_minimal, "matrix", "fn")
    p.add_argument("--point")
    p.add_argument("--mu")
    p.add_argument("--k-max", type=_int_flag, default=24)
    p.add_argument("--value-max", type=_int_flag, default=64)
    p = add("coboundary", _cmd_coboundary, "matrix", "fn")
    p.add_argument("mode", choices=["check", "solve"])
    p = add("psi-transfer", _cmd_psi_transfer, "fn")
    p.add_argument("--code", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--l1", required=True)
    add("ktheory", _cmd_ktheory, "matrix")
    add("examples", _run_examples)
    return parser


def _cmd_validate(args):
    A = _load_matrix(args.matrix)
    _emit({"n": A.n, **A.flags()})
    return 0


def _cmd_words(args):
    A = _load_matrix(args.matrix)
    _emit({"m": args.m, "words": [list(w) for w in enumerate_words(A, args.m)]})
    return 0


def _cmd_higher_block(args):
    A = _load_matrix(args.matrix)
    block, labels = higher_block(A, args.K)
    _emit({"matrix": block.tolist(), "labels": [list(w) for w in labels]})
    return 0


def _cmd_saturated(args):
    A = _load_matrix(args.matrix)
    H = A.check_symbols(set(_parse_word(args.H)))
    witness = has_cycle_within(A, set(range(1, A.n + 1)) - H)
    _emit({"saturated": witness is None, "witness": list(witness) if witness else None})
    return 0 if witness is None else NEGATIVE_VERDICT


def _cmd_sigma_family(args):
    A = _load_matrix(args.matrix)
    family = sigma_family(A, set(_parse_word(args.H)))
    _emit({"sigma": [list(w) for w in family.words]})
    return 0


def _cmd_inclusion_matrix(args):
    if args.levels < 1:
        raise ValueError("--levels must be at least 1, not %d" % args.levels)
    A = _load_matrix(args.matrix)
    H = set(_parse_word(args.H))
    inc = inclusion_matrix(A, H)
    _emit(
        {
            "sigma": [list(w) for w in inc.family.words],
            "A_H": inc.tolist(),
            "saturated": True,
            "primitive": is_primitive(inc.matrix),
            "dims": dimension_report(inc.matrix, args.levels)["vectors"],
        }
    )
    return 0


def _cmd_suspend(args):
    A = _load_matrix(args.matrix)
    f = _load_locfun(A, args.fn)
    block, ceiling, _labels = reduce_to_first_coordinate(A, f)
    values = [ceiling.table[(i,)] for i in range(1, block.n + 1)]
    S = suspended_matrix(block, values)
    _emit(
        {
            "A_f": S.matrix.tolist(),
            "labels": S.label_strings(),
            "corner_ok": corner_partition_check(block, values),
        }
    )
    return 0


def _split_args(args):
    A = _load_matrix(args.matrix)
    f = _load_locfun(A, args.fn)
    return A, f, _parse_word(args.mu), _parse_word(args.nu)


def _cmd_split(args):
    A, f, mu, nu = _split_args(args)
    pieces = canonicalize(A, mu, nu)
    inside, outside = [], []
    for piece in pieces:
        split = membership_split(A, f, piece)
        inside.extend(z.as_dict() for z in split.inside)
        outside.extend(z.as_dict() for z in split.outside)
    _emit({"inside": inside, "outside": outside})
    return 0


def _cmd_fixed_generator(args):
    A, f, mu, nu = _split_args(args)
    fixed = generator_fixed(A, f, mu, nu)
    _emit({"fixed": fixed})
    return 0 if fixed else NEGATIVE_VERDICT


def _cmd_expectation(args):
    A, f, mu, nu = _split_args(args)
    _emit({"support": [list(w) for w in expectation_support(A, f, mu, nu)]})
    return 0


def _cmd_minimal(args):
    A = _load_matrix(args.matrix)
    f = _load_locfun(A, args.fn)
    if (args.point is None) != (args.mu is None):
        raise ValueError("--point and --mu must be given together")
    if args.point is not None:
        z = _parse_point(A, args.point)
        witness = minimality_search(
            A, f, z, _parse_word(args.mu), k_max=args.k_max, value_max=args.value_max
        )
        if witness is None:
            _emit({"found": False, "witness": None})
            return BOUND_EXHAUSTED
        _emit({"found": True, "witness": witness.as_dict()})
        return 0
    verdict = minimality_verdict(A, f, k_max=args.k_max, value_max=args.value_max)
    _emit(verdict.as_dict())
    if verdict.kind == "minimal":
        return 0
    if verdict.kind == "nonminimal":
        return NEGATIVE_VERDICT
    return BOUND_EXHAUSTED


def _cmd_coboundary(args):
    A = _load_matrix(args.matrix)
    g = _load_locfun(A, args.fn)
    if args.mode == "check":
        found = shortest_nonzero_cycle(A, g)
        _emit(
            {
                "coboundary": found is None,
                "witness_cycle": [list(w) for w in found[0]] if found else None,
                "witness_sum": found[1] if found else None,
            }
        )
        return 0 if found is None else NEGATIVE_VERDICT
    b = solve_potential(A, g)
    _emit({"potential": b.as_dict()})
    return 0


def _cmd_psi_transfer(args):
    h = _load_code(args.code)
    g = _load_locfun(h.target, args.fn)
    k1 = _load_locfun(h.source, args.k1)
    l1 = _load_locfun(h.source, args.l1)
    _emit(psi_transfer(g, h, k1, l1).as_dict())
    return 0


def _cmd_ktheory(args):
    A = _load_matrix(args.matrix)
    groups = ck_k_groups(A)
    doc = dict(groups)
    doc["perron"] = round(perron_value(A), 12)
    _emit(doc)
    return 0


def _run_examples(args):
    checks = []

    golden = TransitionMatrix([[1, 1], [1, 0]])
    inc = inclusion_matrix(golden, {1})
    report = dimension_report(inc.matrix, 3)
    checks.append(
        (
            "support over the golden mean shift, H={1}",
            is_saturated(golden, {1})
            and inc.family.words == ((1,), (2, 1))
            and inc.tolist() == [[1, 1], [1, 1]]
            and is_primitive(inc.matrix)
            and report["uhf_factor"] == 2,
        )
    )

    three = TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    inc3 = inclusion_matrix(three, {1, 2})
    checks.append(
        (
            "support over the 3-symbol zero-diagonal shift, H={1,2}",
            inc3.family.words == ((1,), (2,), (3, 1), (3, 2))
            and inc3.tolist()
            == [[0, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]]
            and is_primitive(inc3.matrix),
        )
    )

    full2 = TransitionMatrix([[1, 1], [1, 1]])
    witness = has_cycle_within(full2, {2})
    verdict = minimality_verdict(full2, make_chi_H(full2, {1}))
    checks.append(
        (
            "non-saturated support over the full 2-shift, H={1}",
            not is_saturated(full2, {1})
            and witness == (2,)
            and verdict.kind == "nonminimal"
            and verdict.certified
            and verdict.evidence[0][0] == PointSpec(full2, (), (2,))
            and verdict.evidence[0][1] == (1,),
        )
    )

    doc = {"checks": [{"name": name, "passed": ok} for name, ok in checks]}
    doc["passed"] = all(ok for _, ok in checks)
    _emit(doc)
    return 0 if doc["passed"] else NEGATIVE_VERDICT


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.run(args)
    except (NotSaturatedError, NotCoboundaryError, TransferIdentityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return NEGATIVE_VERDICT
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
