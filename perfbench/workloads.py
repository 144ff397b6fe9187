"""The two workloads: seeded corpora, operations, and their checks.

`library` issues every library-level query: the groupoid search and
bisection calculus, coboundary solving and refusal with transfers, and the
matrix-structure computations (flags, recoding, support algebras,
suspensions, K-theory); its three parts are built by build_minimality,
build_coboundary and build_structure.  `cli` issues requests to the
command line interface in process.

Each builder receives the freshly imported package, a seeded random
generator and the corpus size, and returns two lists of operations: the
ordinary ones, and the ones that reproduce a known defect of the package
(run only on request, see run.py).  An operation is one top-level query a
user would issue.  Its `run` constructs the package objects from the
generated plain data and calls the package's public functions; that call
is what the benchmark times.  Its `check` is untimed: it tests the result
against an independent property and returns a short, deterministic
summary for the result digest, or raises CheckFailed.

Input sizes are fixed per workload and only the contents come from the
seed, so two seeds cost about the same and one seed always gives the same
inputs.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

from oracles import (
    BASES,
    FULL2,
    GOLDEN,
    ZERO_DIAG3,
    admissible,
    closed_walks,
    coboundary_table,
    dag_complement,
    deep_table,
    determinant,
    ergodic_sum,
    expect,
    fixed_generator,
    general_table,
    has_cycle,
    is_saturated,
    period,
    periodic_sum,
    point_prefix,
    random_table,
    relabel,
    ring_with_chord,
    words,
)


class Op(NamedTuple):
    name: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _table_of(f):
    """A LocFun's normalized table as a sorted, printable tuple."""
    return (f.depth, tuple(sorted(f.table.items())))


def _unit_coboundary(entries, b, db):
    return {w: 1 - b[w[:db]] + b[w[1:]] for w in words(entries, db + 1)}


def _random_point(rng, entries, max_pre=2, max_per=3):
    cycle = rng.choice(closed_walks(entries, max_per))
    pre = []
    for _ in range(rng.randint(0, max_pre)):
        head = pre[0] if pre else cycle[0]
        preds = [i for i in range(1, len(entries) + 1) if entries[i - 1][head - 1]]
        pre.insert(0, rng.choice(preds))
    return tuple(pre), tuple(cycle)


def _grid(entries, size):
    """The first `size` words and `size` eventually periodic points of a shift."""
    mus = [w for m in (1, 2, 3) for w in words(entries, m)][:size]
    cycles = closed_walks(entries, 3)
    points = []
    for pre in [w for m in (0, 1, 2) for w in words(entries, m)]:
        for cyc in cycles:
            if not pre or entries[pre[-1] - 1][cyc[0] - 1]:
                points.append((pre, cyc))
    return points[:size], mus


def _check_witness(table, depth, z, mu, args):
    """Check a minimality-search result; None (bounds exhausted) is allowed."""

    def check(witness):
        if witness is None:
            return "none"
        A, f, zp = args()
        expect(witness.verify(A, f, zp, mu), "witness fails MinimalityWitness.verify")
        x_pre, x_per = witness.x.preperiod, witness.x.period
        k, l = witness.k, witness.l
        # Both tails are eventually periodic: agreeing past both preperiods
        # for a common multiple of the periods makes them equal.
        n = len(mu) + depth + len(x_pre) + len(z[0]) + len(x_per) * len(z[1])
        xs, zs = point_prefix(x_pre, x_per, n + k), point_prefix(z[0], z[1], n + l)
        expect(xs[: len(mu)] == tuple(mu), "witness point leaves the cylinder of mu")
        expect(xs[k : k + n] == zs[l : l + n], "sigma^k(x) != sigma^l(z)")
        expect(
            ergodic_sum(table, depth, xs, k) == ergodic_sum(table, depth, zs, l),
            "cocycle sums of the witness differ",
        )
        return "k=%d l=%d x=%r" % (k, l, (x_pre, x_per))

    return check


# --------------------------------------------------------------- minimality


def build_minimality(sc, rng, tiny):
    ops, defects = [], []

    def matrix_fn(entries, depth, table):
        def make():
            A = sc.TransitionMatrix(entries)
            return A, sc.LocFun(A, depth, table)

        return make

    # The exhausted ladder: no point of U_(1) reaches 2^inf with equal sums,
    # because every path out of the cylinder picks up weight chi_{1} >= 1.
    chi1 = {(1,): 1, (2,): 0}
    for k_max in (6, 10) if tiny else (12, 16, 24, 32, 40):

        def ladder(k_max=k_max):
            A = sc.TransitionMatrix(FULL2)
            f = sc.LocFun(A, 1, chi1)
            return sc.minimality_search(A, f, sc.PointSpec(A, (), (2,)), (1,), k_max=k_max)

        def none_expected(result):
            expect(result is None, "a witness was found where none exists")
            return "exhausted"

        ops.append(Op("ladder k_max=%d" % k_max, "ladder", ladder, none_expected))

    k_verdict = 6 if tiny else 10
    # Grid-search verdicts on nonnegative potentials that fit no structural class.
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        for depth in (1,) if tiny else (1, 2, 3):
            table = general_table(rng, entries, depth, 0, 2)
            make = matrix_fn(entries, depth, table)

            def verdict(make=make):
                A, f = make()
                return sc.minimality_verdict(A, f, k_max=k_verdict, value_max=64)

            def check_grid(v):
                expect(v.kind in ("minimal", "nonminimal", "unknown"), "bad kind %r" % v.kind)
                # The table is general (see general_table), so no structural
                # class applies and a certified answer would be wrong.
                expect(not v.certified, "certified verdict for a general potential")
                if v.kind == "nonminimal":
                    expect(v.evidence, "nonminimal verdict without evidence")
                return "%s certified=%s evidence=%d" % (v.kind, v.certified, len(v.evidence))

            ops.append(Op("verdict %s depth %d" % (base, depth), "verdict.grid", verdict, check_grid))

    # Verdicts whose class is known: a cycle avoiding H, and unit coboundaries
    # over primitive matrices.
    for base, H in (("full2", (rng.randint(1, 2),)), ("zd3", (rng.randint(1, 3),))):
        entries = BASES[base]
        table = {(i,): int(i in H) for i in range(1, len(entries) + 1)}
        make = matrix_fn(entries, 1, table)

        def chi_verdict(make=make):
            A, f = make()
            return sc.minimality_verdict(A, f, k_max=k_verdict)

        def check_avoid(v, H=H):
            expect(v.kind == "nonminimal" and v.certified, "expected certified nonminimal")
            z, mu = v.evidence[0]
            expect(not set(z.period) & set(H), "evidence cycle meets H")
            return "nonminimal certified z=%r" % ((z.preperiod, z.period),)

        ops.append(Op("verdict chi_H=%r %s" % (H, base), "verdict.known", chi_verdict, check_avoid))
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        db = 1 if tiny else 2
        b = random_table(rng, entries, db, -2, 2)
        table = _unit_coboundary(entries, b, db)
        make = matrix_fn(entries, db + 1, table)

        def cob_verdict(make=make):
            A, f = make()
            return sc.minimality_verdict(A, f, k_max=k_verdict)

        def check_minimal(v):
            expect(v.kind == "minimal" and v.certified, "expected certified minimal")
            return "minimal certified"

        ops.append(Op("verdict unit coboundary %s" % base, "verdict.known", cob_verdict, check_minimal))

    # chi_{1} + (b o sigma - b) on the full 2-shift: nonminimal, but no
    # structural class certifies it, so the verdict falls back to the grid.
    b = {(1,): 0, (2,): 0}
    while b[(1,)] == b[(2,)]:
        b = random_table(rng, FULL2, 1, -1, 1)
    shift = coboundary_table(FULL2, b, 1)
    table = {w: shift[w] + (w[0] == 1) for w in shift}
    make = matrix_fn(FULL2, 2, table)

    def chi_cob_verdict(make=make):
        A, f = make()
        return sc.minimality_verdict(A, f, k_max=k_verdict)

    def check_chi_cob(v):
        expect(not v.certified and v.kind != "minimal", "expected an uncertified non-minimal answer")
        return "%s evidence=%d" % (v.kind, len(v.evidence))

    ops.append(Op("verdict chi_1 + coboundary full2", "verdict.known", chi_cob_verdict, check_chi_cob))

    # Unit-coboundary 5x5 grids of (z, mu) pairs: the potential is minimal,
    # so witnesses exist and the searches mostly return early.  The grid is
    # fixed per matrix; the seed draws the potentials.
    grid = 2 if tiny else 5
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        points, mus = _grid(entries, grid)
        for _ in range(1 if tiny else 6):
            b = deep_table(rng, entries, 1, -1, 1)
            table = _unit_coboundary(entries, b, 1)
            for z in points:
                for mu in mus:

                    def args(entries=entries, table=table, z=z):
                        A = sc.TransitionMatrix(entries)
                        return A, sc.LocFun(A, 2, table), sc.PointSpec(A, z[0], z[1])

                    def search(args=args, mu=mu):
                        A, f, zp = args()
                        return sc.minimality_search(A, f, zp, mu, k_max=12)

                    ops.append(
                        Op(
                            "search %s z=%r mu=%r" % (base, z, mu),
                            "grid.search",
                            search,
                            _check_witness(table, 2, z, mu, args),
                        )
                    )

    # Bisection calculus sweeps over all end-matched bisections up to a
    # length.  The membership splits run once per seeded potential.
    for base, length in (("golden", 4), ("full2", 3), ("zd3", 3)):
        if tiny:
            length = 2
        entries = BASES[base]
        all_words = [w for m in range(1, length + 1) for w in words(entries, m)]
        pairs = [(mu, nu) for mu in all_words for nu in all_words if mu[-1] == nu[-1]]
        table = deep_table(rng, entries, 2, -2, 2)
        ops.extend(_sweeps(sc, base, entries, table, all_words, pairs))
        for i in range(1 if tiny else 22):
            table = deep_table(rng, entries, 2, -2, 2)
            ops.append(_split_sweep(sc, base, entries, table, pairs, i))
    return ops, defects


def _bisections(sc, pairs):
    return [sc.Bisection(mu, nu) for mu, nu in pairs]


def _sweeps(sc, base, entries, table, all_words, pairs):
    depth = 2

    def compose_all():
        zs = _bisections(sc, pairs)
        return [sc.compose(z1, z2) for z1 in zs for z2 in zs]

    def check_compose(products):
        expect(len(products) == len(pairs) ** 2, "missing products")
        count, lag_total = 0, 0
        it = iter(products)
        for mu, nu in pairs:
            for xi, eta in pairs:
                p = next(it)
                comparable = xi[: len(nu)] == nu or nu[: len(xi)] == xi
                expect((p is not None) == comparable, "product existence wrong")
                if p is None:
                    continue
                expect(p.mu[: len(mu)] == mu and p.nu[: len(eta)] == eta, "product words wrong")
                expect(p.mu[-1] == p.nu[-1], "product not end-matched")
                expect(p.lag == len(mu) - len(nu) + len(xi) - len(eta), "lag not additive")
                count += 1
                lag_total += p.lag
        return "products=%d lag_total=%d" % (count, lag_total)

    def invert_all():
        return [sc.invert(z) for z in _bisections(sc, pairs)]

    def check_invert(inverses):
        expect([(z.nu, z.mu) for z in inverses] == pairs, "inverse is not (nu, mu)")
        return "inverses=%d" % len(inverses)

    word_pairs = [(mu, nu) for mu in all_words for nu in all_words]

    def fixed_all():
        A = sc.TransitionMatrix(entries)
        f = sc.LocFun(A, depth, table)
        return [sc.generator_fixed(A, f, mu, nu) for mu, nu in word_pairs]

    def check_fixed(flags):
        for (mu, nu), flag in zip(word_pairs, flags):
            expect(flag == fixed_generator(entries, table, depth, mu, nu), "fixed flag wrong for %r" % ((mu, nu),))
        return "fixed=%d" % sum(flags)

    return [
        Op("compose sweep %s" % base, "sweep.compose", compose_all, check_compose),
        Op("invert sweep %s" % base, "sweep.invert", invert_all, check_invert),
        Op("generator_fixed sweep %s" % base, "sweep.fixed", fixed_all, check_fixed),
    ]


def _split_sweep(sc, base, entries, table, pairs, i):
    depth = 2

    def split_all():
        A = sc.TransitionMatrix(entries)
        f = sc.LocFun(A, depth, table)
        return [sc.membership_split(A, f, z) for z in _bisections(sc, pairs)]

    def check_split(splits):
        inside_total = 0
        for (mu, nu), split in zip(pairs, splits):
            tails = {t[:1] for t in words(entries, 2) if entries[mu[-1] - 1][t[0] - 1]}
            pieces = list(split.inside) + list(split.outside)
            expect(sorted(p.mu for p in pieces) == sorted(mu + t for t in tails), "pieces do not partition")
            for p in split.inside:
                expect(ergodic_sum(table, depth, p.mu, len(mu)) == ergodic_sum(table, depth, p.nu, len(nu)), "inside piece fails")
            for p in split.outside:
                expect(ergodic_sum(table, depth, p.mu, len(mu)) != ergodic_sum(table, depth, p.nu, len(nu)), "outside piece holds")
            inside_total += len(split.inside)
        return "inside=%d" % inside_total

    return Op("membership_split sweep %s #%d" % (base, i), "sweep.split", split_all, check_split)


# --------------------------------------------------------------- coboundary


def build_coboundary(sc, rng, tiny):
    ops, defects = [], []

    # Success path: coboundaries g = b o sigma - b, solved and round-tripped.
    max_depth = {"golden": 9, "full2": 9, "zd3": 7}
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        for db in range(1, (3 if tiny else max_depth[base])):
            for _ in range(1 if tiny or db > 3 else 10):
                b = random_table(rng, entries, db, -3, 3)
                g = coboundary_table(entries, b, db)

                def solve(entries=entries, db=db, g=g):
                    A = sc.TransitionMatrix(entries)
                    return sc.solve_potential(A, sc.LocFun(A, db + 1, g))

                def check_solve(pot, db=db, g=g):
                    A = pot.matrix
                    expect(pot.shifted() - pot == sc.LocFun(A, db + 1, g), "b o sigma - b != g")
                    return repr(_table_of(pot))

                ops.append(Op("solve %s depth %d" % (base, db + 1), "solve.coboundary", solve, check_solve))

    # Failure path: general potentials, classified and refused with a witness.
    general_depth = {"golden": 5, "full2": 5, "zd3": 4}
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        for depth in range(1, (2 if tiny else general_depth[base]) + 1):
            copies = 10 if (base, depth) == ("full2", 4) else 8 if depth <= 2 else 1
            for _ in range(1 if tiny else copies):
                table = general_table(rng, entries, depth, -2, 2)
                ops.extend(_general_ops(sc, base, entries, depth, table))
    # The first failing size: the failure path enumerates every simple cycle
    # of the depth-5 block graph of zd3 and gives up past the cycle cap.
    table = general_table(rng, ZERO_DIAG3, 5, -2, 2)
    defects.append(_general_ops(sc, "zd3", ZERO_DIAG3, 5, table)[0])

    # Transfer across a continuous-full-group element of the full 2-shift.
    for i in range(1 if tiny else 6):
        rules = _full_group_rules(rng, 3 if tiny else 4)
        b = random_table(rng, FULL2, 1, -2, 2)
        g = _unit_coboundary(FULL2, b, 1)
        ops.append(_fullgroup_transfer(sc, rules, g, i))

    # Transfer across the 2-block code into the higher block presentation.
    for base in ("golden", "full2", "zd3"):
        entries = BASES[base]
        for _ in range(1 if tiny else 4):
            ops.append(_sliding_transfer(sc, rng, base, entries))
    return ops, defects


def _general_ops(sc, base, entries, depth, table):
    cycles = closed_walks(entries, 4)

    def classify():
        A = sc.TransitionMatrix(entries)
        return sc.classify_potential(A, sc.LocFun(A, depth, table))

    def check_classify(cls):
        expect(cls.kind == "general" and not cls.kinds, "expected a general potential, got %r" % (cls.kinds,))
        return "general"

    def solve_fail():
        A = sc.TransitionMatrix(entries)
        try:
            sc.solve_potential(A, sc.LocFun(A, depth, table))
        except sc.NotCoboundaryError as exc:
            return exc
        return None

    def check_refusal(exc):
        expect(exc is not None, "a non-coboundary was solved")
        cyc = exc.witness
        expect(cyc is not None and len(cyc) >= 1, "refusal without a witness cycle")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            expect(a[1:] == b[:-1] and entries[a[-1] - 1][b[-1] - 1], "witness is not a cycle")
        # The block vertices spell the periodic point of the cycle.
        total = periodic_sum(table, depth, tuple(w[0] for w in cyc))
        expect(total != 0, "witness cycle has zero sum")
        expect(any(periodic_sum(table, depth, c) for c in cycles), "input had no obstruction")
        return "witness=%r sum=%d" % (cyc, total)

    return [
        Op("classify %s depth %d" % (base, depth), "classify.general", classify, check_classify),
        Op("refuse %s depth %d" % (base, depth), "solve.refuse", solve_fail, check_refusal),
    ]


def _full_group_rules(rng, pieces):
    """Two random partitions of the full 2-shift into `pieces` cylinders, paired."""

    def partition():
        parts = [(1,), (2,)]
        while len(parts) < pieces:
            w = parts.pop(rng.randrange(len(parts)))
            parts.extend([w + (1,), w + (2,)])
        return sorted(parts)

    src, dst = partition(), partition()
    rng.shuffle(dst)
    return [(s, d) for s, d in zip(src, dst)]


def _fullgroup_transfer(sc, rules, g, i):
    samples = [((), (1,)), ((), (2,)), ((1,), (2,)), ((2, 2), (1, 2)), ((1, 2, 1), (2, 1, 1))]

    def transfer():
        A = sc.TransitionMatrix(FULL2)
        tau = sc.FullGroupElement(A, rules)
        k1, l1 = tau.coe_pair()
        t = sc.psi_transfer(sc.LocFun(A, 2, g), tau, k1, l1)
        return t, sc.classify_potential(A, t), tau, k1, l1

    def check(result):
        t, cls, tau, k1, l1 = result
        # psi sends 1 to the unit coboundary of d_tau and coboundaries to
        # coboundaries, so a unit coboundary transfers to a unit coboundary.
        expect("coboundary_1b" in cls.kinds, "transfer of a unit coboundary is %r" % (cls.kinds,))
        f = sc.LocFun(tau.matrix, 2, g)
        for pre, per in samples:
            x = sc.PointSpec(tau.matrix, pre, per)
            hx, hsx = tau.apply_point(x), tau.apply_point(x.shift(1))
            lv, kv = l1.eval_point(x), k1.eval_point(x)
            direct = sum(f.eval_point(hx, j) for j in range(lv + 1)) - sum(
                f.eval_point(hsx, j) for j in range(kv + 1)
            )
            expect(t.eval_point(x) == direct, "transfer disagrees with the orbit sums at %r" % ((pre, per),))
        return repr(_table_of(t))

    return Op("psi_transfer full group #%d" % i, "transfer.fullgroup", transfer, check)


def _sliding_transfer(sc, rng, base, entries):
    labels = words(entries, 2)
    index = {w: i + 1 for i, w in enumerate(labels)}
    block = [[int(a[1:] == b[:1]) for b in labels] for a in labels]
    gt = random_table(rng, block, 1, -3, 3)
    code = {w: index[w] for w in labels}

    def transfer():
        A, B = sc.TransitionMatrix(entries), sc.TransitionMatrix(block)
        h = sc.BlockCode(A, B, 2, code)
        t = sc.psi_transfer(sc.LocFun(B, 1, gt), h, sc.LocFun.constant(A, 0), sc.LocFun.constant(A, 1))
        return t, sc.classify_potential(A, t)

    def check(result):
        t, cls = result
        composed = sc.LocFun(t.matrix, 2, {w: gt[(index[w],)] for w in labels})
        expect(t == composed, "sliding transfer is not the composition g o h")
        return "%r %s" % (_table_of(t), cls.kind)

    return Op("psi_transfer 2-block %s" % base, "transfer.sliding", transfer, check)


# ---------------------------------------------------------------- structure


def build_structure(sc, rng, tiny):
    ops, defects = [], []

    def flags_op(name, family, entries, expected_period):
        def run():
            return sc.TransitionMatrix(entries).flags()

        def check(flags):
            expect(flags["irreducible"], "irreducible input reported reducible")
            expect(flags["primitive"] == (expected_period == 1), "primitive flag disagrees with period %d" % expected_period)
            expect(not flags["permutation"], "not a permutation")
            return repr(sorted(flags.items()))

        return Op(name, family, run, check)

    # Ring plus chord: the chord 0 -> 2 is Wielandt's matrix (primitive, the
    # sharp exponent (n-1)^2 + 1); odd chords give even period gcd(n, c - 1).
    # Either way the flags cost what n dictates.  The largest ring comes only
    # as Wielandt's matrix, to keep a pass short.
    sizes = (8, 12) if tiny else (20,) * 4 + (30,) * 10 + (40, 50, 60)
    for n in sizes:
        perm = list(range(n))
        rng.shuffle(perm)
        chords = [2] if n == 60 else [2, rng.choice(range(3, n, 2))]
        for c in chords:
            entries = relabel(ring_with_chord(n, c), perm)
            p = period(entries)
            ops.append(flags_op("ring n=%d chord=%d" % (n, c), "flags.ring", entries, p))

    # Towers over the full 3-shift: every ceiling is a cycle length, so the
    # period is their gcd; the total height is fixed per size.
    full3 = [[1, 1, 1]] * 3
    for total in (12, 18) if tiny else (12, 18, 24, 42, 48, 54):
        g = rng.choice([d for d in (2, 3) if total % d == 0])
        parts = [1, 1, 1]
        for _ in range(total // g - 3):
            parts[rng.randrange(3)] += 1
        ceilings = [g * p for p in parts]

        def tower(ceilings=ceilings):
            S = sc.suspended_matrix(sc.TransitionMatrix(full3), ceilings)
            return S.size, S.matrix.flags()

        def check_tower(result, ceilings=ceilings, g=g):
            size, flags = result
            expect(size == sum(ceilings), "tower has %d states" % size)
            expect(flags["irreducible"] and flags["primitive"] == (g == 1), "tower flags disagree with period %d" % g)
            return "%d %r" % (size, sorted(flags.items()))

        ops.append(Op("tower ceilings=%r" % ceilings, "flags.tower", tower, check_tower))

    # Seeded sparse primitive matrices: a Hamiltonian cycle plus a loop makes
    # them primitive by construction.
    for n in (6, 10) if tiny else (20, 30, 50, 60, 80):
        perm = list(range(n))
        rng.shuffle(perm)
        entries = ring_with_chord(n, 0)  # the chord 0 -> 0 is the loop
        for i in range(n):
            entries[i][rng.randrange(n)] = 1
        entries = relabel(entries, perm)

        def kgroups(entries=entries):
            A = sc.TransitionMatrix(entries)
            return A.flags(), sc.ck_k_groups(A), sc.perron_value(A.entries)

        def check_kgroups(result, entries=entries):
            flags, groups, lam = result
            expect(flags["primitive"] and flags["irreducible"], "primitive input reported otherwise")
            tors = groups["K0"]["torsion"]
            expect(all(b % a == 0 for a, b in zip(tors, tors[1:])), "torsion breaks the divisibility chain")
            n = len(entries)
            M = [[int(i == j) - entries[j][i] for j in range(n)] for i in range(n)]
            det = abs(determinant(M))
            prod = 1
            for t in tors:
                prod *= t
            if det:
                expect(groups["K0"]["rank"] == 0 and prod == det, "|K0| != |det(I - A^T)|")
            else:
                expect(groups["K0"]["rank"] > 0, "singular I - A^T but K0 has no free part")
            sums = [sum(r) for r in entries]
            expect(min(sums) - 1e-9 <= lam <= max(sums) + 1e-9, "Perron value outside the row-sum bounds")
            return "%r %.9f" % (groups, lam)

        ops.append(Op("kgroups random n=%d" % n, "kgroups.random", kgroups, check_kgroups))

    # Smith normal forms of seeded integer matrices.
    for i in range(4 if tiny else 40):
        rows, cols = rng.randint(4, 8 if tiny else 12), rng.randint(4, 8 if tiny else 12)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]

        def smith(M=M):
            return sc.smith_normal_form(M)

        def check_smith(result, M=M):
            D = result[0]
            diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
            expect(all(D[i][j] == 0 for i in range(len(D)) for j in range(len(D[0])) if i != j), "D is not diagonal")
            expect(all(d >= 0 for d in diag), "negative invariant factor")
            expect(all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])), "divisibility chain broken")
            if len(M) == len(M[0]):
                prod = 1
                for d in diag:
                    prod *= d
                expect(prod == abs(determinant(M)), "product of invariant factors != |det|")
            return repr(diag)

        ops.append(Op("smith %dx%d #%d" % (rows, cols, i), "smith.random", smith, check_smith))

    # K0 of the full n-shift is Z/(n-1).
    for n in range(2, 6 if tiny else 13):

        def k0(n=n):
            return sc.ck_k_groups(sc.TransitionMatrix([[1] * n for _ in range(n)]))

        def check_k0(groups, n=n):
            expect(groups["K0"] == {"rank": 0, "torsion": [n - 1] if n > 2 else []}, "K0 of full %d-shift wrong" % n)
            return repr(groups)

        ops.append(Op("k0 full %d-shift" % n, "k0.full", k0, check_k0))

    # Higher block presentations of the full 2-shift.
    for K in (3, 4) if tiny else (6, 7, 8, 9, 10):

        def block(K=K):
            return sc.higher_block(sc.TransitionMatrix(FULL2), K)

        def check_block(result, K=K):
            B, labels = result
            expect(len(labels) == 2 ** K and B.n == 2 ** K, "wrong number of K-blocks")
            rows = B.tolist()
            expect(all(sum(r) == 2 for r in rows), "a K-block lacks its two followers")
            expect(all(rows[a][b] == (labels[a][1:] == labels[b][:-1]) for a in range(0, len(rows), 7) for b in range(len(rows))), "wrong overlap edge")
            return "K=%d" % K

        ops.append(Op("higher_block full2 K=%d" % K, "higher_block", block, check_block))

    for m in (3, 4) if tiny else (4, 5, 6, 7, 9):
        ops.extend(_support_ops(sc, rng, m))

    # Suspensions of small shifts: tower matrices, corner check, encode/decode.
    for i in range(4 if tiny else 60):
        base = rng.choice(sorted(BASES))
        entries = BASES[base]
        ceilings = [rng.randint(1, 4) for _ in entries]
        word = rng.choice(words(entries, 6))

        def suspend(entries=entries, ceilings=ceilings):
            A = sc.TransitionMatrix(entries)
            return sc.suspended_matrix(A, ceilings).size, sc.corner_partition_check(A, ceilings)

        def check_suspend(result, ceilings=ceilings):
            size, corner = result
            expect(size == sum(ceilings) and corner, "tower size or corner partition wrong")
            return "%d %s" % result

        def roundtrip(entries=entries, ceilings=ceilings, word=word):
            S = sc.suspended_matrix(sc.TransitionMatrix(entries), ceilings)
            code = sc.encode_word(S, word)
            return code, sc.decode_return_times(S, code)

        def check_roundtrip(result, ceilings=ceilings, word=word):
            code, decoded = result
            expect(len(code) == sum(ceilings[s - 1] for s in word), "encoded length wrong")
            expect(decoded == (word, 0), "decode(encode(w)) != (w, 0)")
            return repr(code)

        ops.append(Op("suspend %s %r" % (base, ceilings), "suspension.corner", suspend, check_suspend))
        ops.append(Op("roundtrip %s %r" % (base, ceilings), "suspension.roundtrip", roundtrip, check_roundtrip))
    return ops, defects


def _support_ops(sc, rng, m):
    perm = list(range(m + 1))
    rng.shuffle(perm)
    entries = relabel(dag_complement(m), perm)
    H = {perm[0] + 1}
    size = 2 ** m
    ones = [[1] * size for _ in range(size)]

    def family():
        return sc.sigma_family(sc.TransitionMatrix(entries), H)

    def check_family(fam):
        expect(fam.size == size, "family has %d words, not 2^%d" % (fam.size, m))
        expect(list(fam.words) == sorted(fam.words) and all(w[-1] in H for w in fam.words), "family order or ends wrong")
        expect(all(admissible(entries, w) for w in fam.words), "inadmissible family word")
        return "size=%d" % fam.size

    def inclusion():
        return sc.inclusion_matrix(sc.TransitionMatrix(entries), H)

    def check_inclusion(inc):
        expect(inc.size == size and inc.tolist() == ones, "inclusion matrix is not all ones")
        return "size=%d" % inc.size

    def primitive():
        return sc.is_primitive(ones)

    def check_primitive(flag):
        expect(flag is True, "all-ones matrix reported imprimitive")
        return "True"

    def dims():
        return sc.dimension_report(ones, 3)

    def check_dims(rep):
        expect(rep["uhf_factor"] == size, "UHF factor is not 2^%d" % m)
        expect(rep["vectors"][2] == [size * size] * size, "dimension vectors wrong")
        return repr(rep["dimension_proxy"])

    cap = 2 * m + 3

    def census():
        return sc.weight_word_census(sc.TransitionMatrix(entries), H, 1, cap)

    def check_census(res):
        expect(res.count == 4 ** m and res.stabilized, "census %d != 4^%d" % (res.count, m))
        return repr(res.by_length)

    tag = "m=%d" % m
    return [
        Op("sigma_family " + tag, "support.family", family, check_family),
        Op("inclusion_matrix " + tag, "support.inclusion", inclusion, check_inclusion),
        Op("is_primitive " + tag, "support.primitive", primitive, check_primitive),
        Op("dimension_report " + tag, "support.dimensions", dims, check_dims),
        Op("weight_word_census " + tag, "support.census", census, check_census),
    ]


# ---------------------------------------------------------------------- cli


class _Docs:
    """Writes the JSON input documents of the CLI workload into a directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, doc, raw=None):
        self.count += 1
        path = os.path.join(self.workdir, "doc%04d.json" % self.count)
        with open(path, "w") as fh:
            fh.write(raw if raw is not None else json.dumps(doc))
        return path


def _fn_doc(table, depth):
    return {"depth": depth, "values": {",".join(map(str, w)): v for w, v in sorted(table.items())}}


def _word_arg(word):
    return ",".join(map(str, word))


def build_cli(sc, rng, tiny, workdir):
    docs = _Docs(workdir)
    requests, defects = [], []

    def add(argv, codes, family, target=requests):
        target.append((family, argv, frozenset(codes)))

    matrices = dict(BASES)
    for i in range(2):
        while True:
            n = rng.randint(2, 3)
            e = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            if all(any(r) for r in e) and all(any(c) for c in zip(*e)):
                try:
                    if period(e) != 1:
                        continue
                except ValueError:
                    continue
                matrices["random%d" % i] = e
                break
    paths = {name: docs.write({"matrix": e}) for name, e in matrices.items()}

    for name, e in sorted(matrices.items()):
        M, n = paths[name], len(e)
        add(["validate", "--matrix", M], {0}, "validate")
        for m in (1, 2, 3, 4):
            add(["words", "--matrix", M, "--m", str(m)], {0}, "words")
        for K in (1, 2, 3):
            add(["higher-block", "--matrix", M, "--K", str(K)], {0}, "higher-block")
        for H in ([1], [n], list(range(1, n))):
            sat = is_saturated(e, H)
            Harg = _word_arg(H)
            add(["saturated", "--matrix", M, "--H", Harg], {0 if sat else 3}, "saturated")
            add(["sigma-family", "--matrix", M, "--H", Harg], {0 if sat else 3}, "sigma-family")
            add(["inclusion-matrix", "--matrix", M, "--H", Harg, "--levels", "3"], {0 if sat else 3}, "inclusion-matrix")
        add(["ktheory", "--matrix", M], {0}, "ktheory")

        ceiling = random_table(rng, e, rng.randint(1, 2), 1, 3)
        add(["suspend", "--matrix", M, "--fn", docs.write(_fn_doc(ceiling, len(next(iter(ceiling)))))], {0}, "suspend")

        depth = rng.randint(1, 3)
        table = random_table(rng, e, depth, -2, 2)
        F = docs.write(_fn_doc(table, depth))
        for _ in range(3):
            mu = rng.choice(words(e, rng.randint(1, 3)))
            nu = rng.choice(words(e, rng.randint(1, 3)))
            fixed = fixed_generator(e, table, depth, mu, nu)
            munu = ["--mu", _word_arg(mu), "--nu", _word_arg(nu)]
            add(["split", "--matrix", M, "--fn", F] + munu, {0}, "split")
            add(["expectation", "--matrix", M, "--fn", F] + munu, {0}, "expectation")
            add(["fixed-generator", "--matrix", M, "--fn", F] + munu, {0 if fixed else 3}, "fixed-generator")

        db = rng.randint(1, 2)
        b = random_table(rng, e, db, -2, 2)
        G = docs.write(_fn_doc(coboundary_table(e, b, db), db + 1))
        add(["coboundary", "check", "--matrix", M, "--fn", G], {0}, "coboundary")
        add(["coboundary", "solve", "--matrix", M, "--fn", G], {0}, "coboundary")
        gdepth = rng.randint(1, 3)
        general = general_table(rng, e, gdepth, -2, 2)
        N = docs.write(_fn_doc(general, gdepth))
        add(["coboundary", "check", "--matrix", M, "--fn", N], {3}, "coboundary")
        add(["coboundary", "solve", "--matrix", M, "--fn", N], {3}, "coboundary")

        unit = _unit_coboundary(e, b, db)
        U = docs.write(_fn_doc(unit, db + 1))
        if period(e) == 1:
            add(["minimal", "--matrix", M, "--fn", U], {0}, "minimal")
        for _ in range(2):
            z = _random_point(rng, e)
            mu = rng.choice(words(e, rng.randint(1, 2)))
            point = "%s:%s" % (_word_arg(z[0]), _word_arg(z[1]))
            add(["minimal", "--matrix", M, "--fn", U, "--point", point, "--mu", _word_arg(mu), "--k-max", "8"], {0, 4}, "minimal")
        for H in ([1], [n]):
            if has_cycle(e, set(range(1, n + 1)) - set(H)) and len(e) > 1:
                chi = docs.write(_fn_doc({(i,): int(i in H) for i in range(1, n + 1)}, 1))
                add(["minimal", "--matrix", M, "--fn", chi], {3}, "minimal")

        # Malformed documents and requests that the CLI refuses correctly.
        bad = [row[:] for row in e]
        bad[rng.randrange(n)][rng.randrange(n)] = 2
        add(["validate", "--matrix", docs.write({"matrix": bad})], {2}, "malformed")
        add(["validate", "--matrix", docs.write({"matrix": e[:-1]})], {2}, "malformed")
        add(["validate", "--matrix", docs.write({"entries": e})], {2}, "malformed")
        add(["validate", "--matrix", docs.write(None, raw='{"matrix": [[1, 1], [1')], {2}, "malformed")
        add(["words", "--matrix", M, "--m", "-1"], {2}, "malformed")
        short = dict(list(table.items())[1:])
        add(["coboundary", "check", "--matrix", M, "--fn", docs.write(_fn_doc(short, depth))], {2}, "malformed")
        add(["split", "--matrix", M, "--fn", F, "--mu", str(n + 1), "--nu", "1"], {2}, "malformed")
        add(["validate"], {1}, "usage")
        add(["words", "--matrix", M, "--m", "two"], {1}, "usage")

        # Known defects: inputs that must be refused with exit 2 but are not.
        null = [row[:] for row in e]
        null[0][0] = None
        add(["validate", "--matrix", docs.write({"matrix": null})], {2}, "defect.null_entry", defects)
        add(["coboundary", "check", "--matrix", M, "--fn", docs.write({"depth": 1, "values": [1] * n})], {2}, "defect.values_list", defects)
        half = [row[:] for row in e]
        half[0][0] = 1.5
        add(["validate", "--matrix", docs.write({"matrix": half})], {2}, "defect.float_entry", defects)
        frac = dict(table)
        frac[next(iter(frac))] = 1.7
        add(["coboundary", "check", "--matrix", M, "--fn", docs.write(_fn_doc(frac, depth))], {2}, "defect.float_value", defects)
        add(["minimal", "--matrix", M, "--fn", F, "--point", ":%s" % _word_arg(closed_walks(e, 3)[0]), "--mu", "1", "--k-max", "-1"], {2}, "defect.negative_k_max", defects)

    # Transfers across the README's full-group element and the identity code.
    tau_rules = [[[1, 1], [1]], [[1, 2], [2, 1]], [[2], [2, 2]]]
    code = docs.write({"kind": "full_group", "matrix": FULL2, "rules": tau_rules})
    A = sc.TransitionMatrix(FULL2)
    k1, l1 = sc.FullGroupElement(A, [tuple(map(tuple, r)) for r in tau_rules]).coe_pair()
    K1 = docs.write(_fn_doc(k1.table, k1.depth))
    L1 = docs.write(_fn_doc(l1.table, l1.depth))
    for _ in range(3):
        g = random_table(rng, FULL2, rng.randint(1, 2), -2, 2)
        Gf = docs.write(_fn_doc(g, len(next(iter(g)))))
        add(["psi-transfer", "--fn", Gf, "--code", code, "--k1", K1, "--l1", L1], {0}, "psi-transfer")
    ident = docs.write({"kind": "sliding", "source": GOLDEN, "target": GOLDEN, "window": 1, "table": {"1": 1, "2": 2}})
    zero = docs.write(_fn_doc({(1,): 0, (2,): 0}, 1))
    one = docs.write(_fn_doc({(1,): 1, (2,): 1}, 1))
    g = docs.write(_fn_doc(random_table(rng, GOLDEN, 2, -2, 2), 2))
    add(["psi-transfer", "--fn", g, "--code", ident, "--k1", zero, "--l1", one], {0}, "psi-transfer")
    add(["psi-transfer", "--fn", g, "--code", ident, "--k1", zero, "--l1", zero], {3}, "psi-transfer")
    add(["examples"], {0}, "examples")
    add(["no-such-command"], {1}, "usage")

    total = 40 if tiny else 1000
    pool = requests
    order = [pool[i % len(pool)] for i in range(total)]
    rng.shuffle(order)
    cli = __import__(sc.__name__ + ".cli", fromlist=["main"])
    ops = [_cli_op(cli, fam, argv, codes, i) for i, (fam, argv, codes) in enumerate(order)]
    defect_ops = [_cli_op(cli, fam, argv, codes, i) for i, (fam, argv, codes) in enumerate(defects)]
    return ops, defect_ops


def _cli_op(cli, family, argv, codes, i):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        expect(code in codes, "exit %r, expected %s" % (code, sorted(codes)))
        if stdout:
            try:
                json.loads(stdout)
            except ValueError:
                expect(False, "stdout is not exactly one JSON document")
        return "%s %d" % (code, len(stdout))

    name = "cli %s #%d: %s" % (family, i, " ".join(a if "/" not in a else os.path.basename(a) for a in argv))
    return Op(name, "cli." + family, run, check)


def build_library(sc, rng, tiny):
    """All three library parts in one pass.

    Every operation costs what its sizes dictate, whatever the seeded
    values, and the instance counts put the median among many operations of
    about 0.2 ms (grid searches, suspension round trips) and the 90th
    percentile among many of about 3 ms (depth-4 refusals over the full
    2-shift, membership-split sweeps, n = 20 rings), so both percentiles
    stay put from seed to seed.
    """
    ops, defects = [], []
    for build in (build_minimality, build_coboundary, build_structure):
        part, part_defects = build(sc, rng, tiny)
        ops.extend(part)
        defects.extend(part_defects)
    return ops, defects


BUILDERS = {"library": build_library, "cli": build_cli}

WHY = {
    "library": "every kernel at scaling sizes through the public API: search, bisections, coboundary solve and refusal, flags, Smith form, support",
    "cli": "about 1000 in-process CLI requests on paper-sized JSON, including refused malformed input: parsing and constructor cost",
}
