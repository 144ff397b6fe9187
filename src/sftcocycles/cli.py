"""Command line interface: every operation over JSON files.

Inputs are small JSON documents (see the README for the schemas); the
output is a single JSON document on stdout, deterministic byte for byte
for identical inputs.  Exit codes: 0 success, 1 usage error, 2 input
validation failure, 3 negative verdict (not saturated, not a
coboundary, generator not fixed, non-minimal, regression mismatch),
4 bounds exhausted (unknown).

Every request takes one path through ``main``: it parses the command
line, reads and checks the inputs the command declares, in the order it
declares them (``--levels``, then the matrix file, the function file
and the words), calls the command's handler, a function of those inputs
to a document and an exit code, and writes that document.  Only
``psi-transfer`` reads its own files: the code, then its three functions
on the code's shifts.  A refusal on the way is one ``error:`` line on
stderr with its exit code.
"""

import argparse
import json
import sys

from .sft import (
    TransitionMatrix,
    PointSpec,
    _excerpt,
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
    _K_MAX,
    _VALUE_MAX,
    _split_pair,
    generator_fixed,
    expectation_support,
    minimality_search,
    minimality_verdict,
)
from .support import (
    NotSaturatedError,
    _avoiding_cycle,
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
            raise ValueError("JSON object repeats the key %s" % _excerpt(key))
        doc[key] = value
    return doc


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_object)
        except RecursionError:
            raise ValueError("%s nests too deeply to parse" % path) from None


def _parse_word(text):
    """A word written as comma-separated ASCII digit strings, e.g. '1,2'.

    Spaces around each symbol are allowed; anything else (a sign, an
    underscore, a non-ASCII digit) is refused, naming the text.
    """
    if not text.strip():
        return ()
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(
            "word %s must be comma-separated symbols such as '1,2'" % _excerpt(text)
        )
    return tuple(map(int, parts))


def _int_flag(text):
    """An integer flag: an optional '-' followed by ASCII digits.

    argparse's ``int`` would also take '+2', ' 2', '1_0' and '٢'; words
    are spelled in ASCII digits, and so are the numbers on the command
    line.  Anything else is a usage error.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError("invalid int value: %s" % _excerpt(text))
    return int(text)


def _word_table(doc, what):
    """The object `doc` with its keys parsed as words, refusing two keys for one word."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be an object mapping words to integers" % what)
    table = {}
    for key, value in doc.items():
        word = _parse_word(key)
        if word in table:
            raise ValueError(
                "%s key %s repeats the word %s" % (what, _excerpt(key), _excerpt(word))
            )
        table[word] = value
    return table


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
        if not {"source", "target", "window", "table"} <= doc.keys():
            raise ValueError("sliding code file needs 'source', 'target', 'window' and 'table'")
        source = TransitionMatrix(doc["source"])
        target = TransitionMatrix(doc["target"])
        return BlockCode(source, target, doc["window"], _word_table(doc["table"], "code 'table'"))
    if kind == "full_group":
        if not {"matrix", "rules"} <= doc.keys():
            raise ValueError("full_group code file needs 'matrix' and 'rules'")
        matrix = TransitionMatrix(doc["matrix"])
        if not isinstance(doc["rules"], list):
            raise ValueError("code 'rules' must be a list of [src, dst] pairs")
        return FullGroupElement(matrix, doc["rules"])
    raise ValueError("unknown code kind %s" % _excerpt(kind))


def _read(name, args, got):
    """The declared input `name` of a request, read from its flag and checked.

    `got` holds the inputs read before it: a function file is read on
    the matrix.
    """
    if name == "matrix":
        doc = _load_json(args.matrix)
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise ValueError("matrix file must be a JSON object with a 'matrix' key")
        return TransitionMatrix(doc["matrix"])
    if name == "fn":
        return _load_locfun(got["matrix"], args.fn)
    if name == "levels":
        if args.levels < 1:
            raise ValueError("--levels must be at least 1, not %d" % args.levels)
        return args.levels
    word = _parse_word(getattr(args, name))
    return set(word) if name == "H" else word


def _build_parser():
    parser = _Parser(prog="sftcocycles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, *inputs):
        # `main` reads the inputs in the order given here, which is the order
        # of their refusals, and calls `run(args, *inputs)`; their flags are
        # always added (and listed in the usage line) in this function's order.
        p = sub.add_parser(name)
        p.set_defaults(run=run, inputs=inputs)
        for flag in ("matrix", "fn", "H", "mu", "nu"):
            if flag in inputs:
                p.add_argument("--" + flag, required=True)
        if "levels" in inputs:
            p.add_argument("--levels", type=_int_flag, default=3)
        return p

    add("validate", _cmd_validate, "matrix")
    p = add("words", _cmd_words, "matrix")
    p.add_argument("--m", type=_int_flag, required=True)
    p = add("higher-block", _cmd_higher_block, "matrix")
    p.add_argument("--K", type=_int_flag, required=True)
    add("saturated", _cmd_saturated, "matrix", "H")
    add("sigma-family", _cmd_sigma_family, "matrix", "H")
    add("inclusion-matrix", _cmd_inclusion_matrix, "levels", "matrix", "H")
    add("suspend", _cmd_suspend, "matrix", "fn")
    add("split", _cmd_split, "matrix", "fn", "mu", "nu")
    add("fixed-generator", _cmd_fixed_generator, "matrix", "fn", "mu", "nu")
    add("expectation", _cmd_expectation, "matrix", "fn", "mu", "nu")
    p = add("minimal", _cmd_minimal, "matrix", "fn")
    p.add_argument("--point")
    p.add_argument("--mu")
    p.add_argument("--k-max", type=_int_flag, default=_K_MAX)
    p.add_argument("--value-max", type=_int_flag, default=_VALUE_MAX)
    p = add("coboundary", _cmd_coboundary, "matrix", "fn")
    p.add_argument("mode", choices=["check", "solve"])
    p = add("psi-transfer", _cmd_psi_transfer)
    for flag in ("--fn", "--code", "--k1", "--l1"):
        p.add_argument(flag, required=True)
    add("ktheory", _cmd_ktheory, "matrix")
    add("examples", _cmd_examples)
    return parser


def _cmd_validate(args, A):
    return {"n": A.n, **A.flags()}, 0


def _cmd_words(args, A):
    return {"m": args.m, "words": [list(w) for w in enumerate_words(A, args.m)]}, 0


def _cmd_higher_block(args, A):
    block, labels = higher_block(A, args.K)
    return {"matrix": block.tolist(), "labels": [list(w) for w in labels]}, 0


def _cmd_saturated(args, A, H):
    _, witness = _avoiding_cycle(A, H)
    doc = {"saturated": witness is None, "witness": list(witness) if witness else None}
    return doc, 0 if witness is None else NEGATIVE_VERDICT


def _cmd_sigma_family(args, A, H):
    return {"sigma": [list(w) for w in sigma_family(A, H).words]}, 0


def _cmd_inclusion_matrix(args, levels, A, H):
    inc = inclusion_matrix(A, H)
    doc = {
        "sigma": [list(w) for w in inc.family.words],
        "A_H": inc.tolist(),
        "saturated": True,
        "primitive": is_primitive(inc.matrix),
        "dims": dimension_report(inc.matrix, levels)["vectors"],
    }
    return doc, 0


def _cmd_suspend(args, A, f):
    block, ceiling, _labels = reduce_to_first_coordinate(A, f)
    values = [ceiling.table[(i,)] for i in range(1, block.n + 1)]
    S = suspended_matrix(block, values)
    ok = corner_partition_check(block, values)
    return {"A_f": S.matrix.tolist(), "labels": S.label_strings(), "corner_ok": ok}, 0


def _cmd_split(args, A, f, mu, nu):
    return _split_pair(A, f, mu, nu).as_dict(), 0


def _cmd_fixed_generator(args, A, f, mu, nu):
    fixed = generator_fixed(A, f, mu, nu)
    return {"fixed": fixed}, 0 if fixed else NEGATIVE_VERDICT


def _cmd_expectation(args, A, f, mu, nu):
    return {"support": [list(w) for w in expectation_support(A, f, mu, nu)]}, 0


_VERDICT_EXIT = {"minimal": 0, "nonminimal": NEGATIVE_VERDICT, "unknown": BOUND_EXHAUSTED}


def _cmd_minimal(args, A, f):
    if (args.point is None) != (args.mu is None):
        raise ValueError("--point and --mu must be given together")
    if args.point is None:
        verdict = minimality_verdict(A, f, k_max=args.k_max, value_max=args.value_max)
        return verdict.as_dict(), _VERDICT_EXIT[verdict.kind]
    if ":" not in args.point:
        raise ValueError("point must be 'preperiod:period', e.g. '2,1:1,2'")
    pre, per = args.point.split(":", 1)
    z = PointSpec(A, _parse_word(pre), _parse_word(per))
    witness = minimality_search(
        A, f, z, _parse_word(args.mu), k_max=args.k_max, value_max=args.value_max
    )
    if witness is None:
        return {"found": False, "witness": None}, BOUND_EXHAUSTED
    return {"found": True, "witness": witness.as_dict()}, 0


def _cmd_coboundary(args, A, g):
    if args.mode == "solve":
        return {"potential": solve_potential(A, g).as_dict()}, 0
    found = shortest_nonzero_cycle(A, g)
    doc = {
        "coboundary": found is None,
        "witness_cycle": [list(w) for w in found[0]] if found else None,
        "witness_sum": found[1] if found else None,
    }
    return doc, 0 if found is None else NEGATIVE_VERDICT


def _cmd_psi_transfer(args):
    # The code file comes first: the functions are read on its shifts.
    h = _load_code(args.code)
    g = _load_locfun(h.target, args.fn)
    k1 = _load_locfun(h.source, args.k1)
    l1 = _load_locfun(h.source, args.l1)
    return psi_transfer(g, h, k1, l1).as_dict(), 0


def _cmd_ktheory(args, A):
    doc = dict(ck_k_groups(A))
    doc["perron"] = round(perron_value(A), 12)
    return doc, 0


def _cmd_examples(args):
    golden = TransitionMatrix([[1, 1], [1, 0]])
    inc = inclusion_matrix(golden, {1})
    report = dimension_report(inc.matrix, 3)
    golden_ok = (
        is_saturated(golden, {1})
        and inc.family.words == ((1,), (2, 1))
        and inc.tolist() == [[1, 1], [1, 1]]
        and is_primitive(inc.matrix)
        and report["uhf_factor"] == 2
    )

    three = TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    inc3 = inclusion_matrix(three, {1, 2})
    three_ok = (
        inc3.family.words == ((1,), (2,), (3, 1), (3, 2))
        and inc3.tolist() == [[0, 1, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]]
        and is_primitive(inc3.matrix)
    )

    full2 = TransitionMatrix([[1, 1], [1, 1]])
    witness = has_cycle_within(full2, {2})
    verdict = minimality_verdict(full2, make_chi_H(full2, {1}))
    full2_ok = (
        not is_saturated(full2, {1})
        and witness == (2,)
        and verdict.kind == "nonminimal"
        and verdict.certified
        and verdict.evidence[0][0] == PointSpec(full2, (), (2,))
        and verdict.evidence[0][1] == (1,)
    )

    checks = [
        ("support over the golden mean shift, H={1}", golden_ok),
        ("support over the 3-symbol zero-diagonal shift, H={1,2}", three_ok),
        ("non-saturated support over the full 2-shift, H={1}", full2_ok),
    ]
    doc = {"checks": [{"name": name, "passed": ok} for name, ok in checks]}
    doc["passed"] = all(ok for _, ok in checks)
    return doc, 0 if doc["passed"] else NEGATIVE_VERDICT


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        got = {}
        for name in args.inputs:
            got[name] = _read(name, args, got)
        doc, code = args.run(args, *got.values())
        _emit(doc)
        return code
    except (NotSaturatedError, NotCoboundaryError, TransferIdentityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return NEGATIVE_VERDICT
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return VALIDATION_ERROR
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
