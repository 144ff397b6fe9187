#!/usr/bin/env python3
"""Tower constructions and the exact integer-linear-algebra invariants."""

from sftcocycles import (
    LocFun,
    TransitionMatrix,
    ck_k_groups,
    corner_partition_check,
    decode_return_times,
    dimension_report,
    encode_word,
    perron_value,
    reduce_to_first_coordinate,
    smith_normal_form,
    suspended_matrix,
)

golden = TransitionMatrix([[1, 1], [1, 0]])

print("== suspending the golden mean by the ceiling (2, 1) ==")
S = suspended_matrix(golden, (2, 1))
print("vertices:", S.label_strings())
print("matrix:  ", S.matrix.tolist())
print("flags:   ", S.matrix.flags())
print("corner partition check:", corner_partition_check(golden, (2, 1)))
w = encode_word(S, (1, 2, 1, 1))
print("encode (1,2,1,1) ->", w)
print("decode back       ->", decode_return_times(S, w))

print()
print("== deeper ceilings go through the block recoding ==")
f = LocFun(golden, 2, {(1, 1): 2, (1, 2): 1, (2, 1): 3})
block, ceiling, labels = reduce_to_first_coordinate(golden, f)
print("block symbols:", labels)
print("first-coordinate ceiling:", [ceiling.table[(i,)] for i in range(1, block.n + 1)])
print("suspended size:", suspended_matrix(block, [2, 1, 3]).size)

print()
print("== Smith normal form and K-groups ==")
D, U, V = smith_normal_form([[0, -1], [-1, 1]])
print("D =", D, " (self-verified: U.M.V = D)")
for name, A in (
    ("golden mean", golden),
    ("full 2-shift", TransitionMatrix([[1, 1], [1, 1]])),
    ("full 3-shift", TransitionMatrix([[1, 1, 1]] * 3)),
):
    print(name, "->", ck_k_groups(A), "perron %.9f" % perron_value(A))

print()
print("== dimension data of a stationary inclusion ==")
report = dimension_report([[1, 1], [1, 1]], 5)
print("vectors:", report["vectors"])
print("ratios: ", report["ratios"])
print("UHF factor:", report["uhf_factor"])
