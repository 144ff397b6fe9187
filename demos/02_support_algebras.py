#!/usr/bin/env python3
"""The three worked support-algebra examples, end to end.

For a symbol set H, saturation decides whether the fixed-point algebra
of the H-weighted gauge action is approximately finite; when it is, the
first-passage family and its inclusion matrix give the Bratteli data.
"""

from sftcocycles import (
    TransitionMatrix,
    dimension_report,
    has_cycle_within,
    inclusion_matrix,
    is_primitive,
    is_saturated,
    make_chi_H,
    minimality_verdict,
    sigma_family,
    weight_word_census,
)

print("== golden mean shift, H = {1} ==")
golden = TransitionMatrix([[1, 1], [1, 0]])
print("saturated:", is_saturated(golden, {1}))
family = sigma_family(golden, {1})
print("first-passage family:", family.words)
inc = inclusion_matrix(golden, {1})
print("inclusion matrix:", inc.tolist())
print("primitive (=> simple):", is_primitive(inc.matrix))
report = dimension_report(inc.matrix, 5)
print("dimension vectors:", report["vectors"])
print("UHF factor:", report["uhf_factor"], "-> type %d^inf" % report["uhf_factor"])

print()
print("== zero-diagonal 3x3 shift, H = {1, 2} ==")
three = TransitionMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
family = sigma_family(three, {1, 2})
print("first-passage family:", family.words)
inc = inclusion_matrix(three, {1, 2})
print("inclusion matrix:", inc.tolist())
print("primitive:", is_primitive(inc.matrix))
print("level dimensions 1..3:", dimension_report(inc.matrix, 3)["vectors"])

print()
print("== full 2-shift, H = {1}: the non-saturated case ==")
full2 = TransitionMatrix([[1, 1], [1, 1]])
print("saturated:", is_saturated(full2, {1}))
print("witness cycle avoiding H:", has_cycle_within(full2, {2}))
census = weight_word_census(full2, {1}, 1, 12)
print("weight-1 words by length (never dies out):", census.by_length)
verdict = minimality_verdict(full2, make_chi_H(full2, {1}))
print("minimality verdict:", verdict.kind, "| certified:", verdict.certified)
print("reason:", verdict.reason)
