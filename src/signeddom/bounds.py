"""Closed-form lower and upper bounds on the signed domination number.

Every bound is evaluated in exact integer or rational arithmetic (Fraction),
never floating point. Since the weight of any +/-1 labeling is n - 2|V^-|,
the signed domination number always has the parity of n; ``parity_tighten``
strengthens a rational bound to the nearest integer of that parity. The raw
value and the tightened value are both kept: the raw value is the stated
bound, the tightening is a sound sharpening layered on top.

Bound identifiers (also the report-schema column names):

  thm2_1_ub   upper   n - 2*floor((2*rho + delta - 2)/2), needs delta >= 2
  thm3_2_i    lower   ((ceil(d*/2) - floor(D/2) + 1)n + 2*floor(D/2)*l)
                      / (ceil(d*/2) + floor(D/2) + 1), needs nonempty core
  thm3_2_ii   lower   ((ceil(3d*/2) - floor(3D/2) + 3)n + 2(floor(D/2)*l + odd))
                      / (ceil(3d*/2) + floor(3D/2) + 3), needs nonempty core
  thm3_3      lower   -n + 2*max(ceil((D+2)/2), ceil((delta + 2*gamma)/2)),
                      needs n >= 1
  thm3_4_tree lower   ((2*ceil(d*/2) - 1)n + 2(l - s + 2)) / (2*ceil(d*/2) + 1)
                      for trees; reported as the exact value n when the core
                      is empty
  cor_tree    lower   (n + 4 + 2(l - s)) / 3 for trees
  dunbar_tree lower   (n + 4) / 3 for trees

where d* is the minimum core degree, D the maximum degree, l the number of
leaves, s the number of support vertices, and odd the number of odd-degree
vertices. "For trees" means trees with n >= 2; on any other graph the three
tree bounds come back not applicable.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Record, StructuralProfile

LOWER = "lower"
UPPER = "upper"

BOUND_KINDS = {
    "thm2_1_ub": UPPER,
    "thm3_2_i": LOWER,
    "thm3_2_ii": LOWER,
    "thm3_3": LOWER,
    "thm3_4_tree": LOWER,
    "cor_tree": LOWER,
    "dunbar_tree": LOWER,
}
# The catalog order of the report columns: the dict lists the names in it.
BOUND_ORDER = tuple(BOUND_KINDS)


class Bound(Record):
    """One evaluated bound: exact rational value plus its parity tightening.

    A plain slotted value record: the audit builds seven per graph, and
    nothing changes one after it is built.
    """

    __slots__ = _fields = ("name", "kind", "raw", "tightened", "applicable", "reason")

    def __init__(
        self, name: str, kind: str, raw: Fraction | None, tightened: int | None, applicable: bool,
        reason: str | None = None,
    ):
        self.name = name
        self.kind = kind
        self.raw = raw
        self.tightened = tightened
        self.applicable = applicable
        self.reason = reason


def parity_tighten(raw: Fraction, n: int, kind: str) -> int:
    """Nearest integer on the admissible side of ``raw`` with the parity of n.

    A lower bound rounds up and an upper bound down, to the first integer
    with the parity of n. The ceiling and floor come from integer division of
    ``raw``'s numerator by its (positive) denominator, so an int works too.
    """
    if kind == LOWER:
        t = -(-raw.numerator // raw.denominator)
        if (t - n) % 2:
            t += 1
    elif kind == UPPER:
        t = raw.numerator // raw.denominator
        if (t - n) % 2:
            t -= 1
    else:
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    return t


def _bound(name: str, n: int, raw: Fraction) -> Bound:
    kind = BOUND_KINDS[name]
    return Bound(name, kind, raw, parity_tighten(raw, n, kind), True)


def not_applicable(name: str, reason: str) -> Bound:
    return Bound(name, BOUND_KINDS[name], None, None, False, reason)


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def ub_packing_min_degree(profile: StructuralProfile, rho: int) -> Bound:
    """Upper bound from the packing number and minimum degree (delta >= 2)."""
    if profile.delta < 2:
        return not_applicable("thm2_1_ub", "delta < 2")
    raw = Fraction(profile.n - 2 * ((2 * rho + profile.delta - 2) // 2))
    return _bound("thm2_1_ub", profile.n, raw)


def lb_degree_leaves(profile: StructuralProfile) -> Bound:
    """Lower bound from core/maximum degrees and the leaf count."""
    if profile.delta_star is None:
        return not_applicable("thm3_2_i", "empty core")
    cs = _ceil_half(profile.delta_star)
    fd = profile.Delta // 2
    raw = Fraction((cs - fd + 1) * profile.n + 2 * fd * profile.leaf_count, cs + fd + 1)
    return _bound("thm3_2_i", profile.n, raw)


def lb_degree_parity(profile: StructuralProfile) -> Bound:
    """Lower bound additionally weighting odd-degree vertices."""
    if profile.delta_star is None:
        return not_applicable("thm3_2_ii", "empty core")
    c3 = _ceil_half(3 * profile.delta_star)
    f3 = 3 * profile.Delta // 2
    fd = profile.Delta // 2
    num = (c3 - f3 + 3) * profile.n + 2 * (fd * profile.leaf_count + profile.odd_count)
    raw = Fraction(num, c3 + f3 + 3)
    return _bound("thm3_2_ii", profile.n, raw)


def lb_max_degree_domination(profile: StructuralProfile, gamma: int) -> Bound:
    """Lower bound from the maximum degree or the exact domination number.

    ``gamma`` must be the exact domination number; it is an input so that the
    evaluator stays a pure formula. The proof takes a vertex of maximum
    degree, so the bound does not apply to the null graph.
    """
    if profile.n == 0:
        return not_applicable("thm3_3", "n = 0")
    best = max(_ceil_half(profile.Delta + 2), _ceil_half(profile.delta + 2 * gamma))
    raw = Fraction(-profile.n + 2 * best)
    return _bound("thm3_3", profile.n, raw)


def tree_lower_bounds(profile: StructuralProfile):
    """The three tree bounds (thm3_4_tree, cor_tree, dunbar_tree).

    On a graph that is not a tree, or has n < 2, all three are not
    applicable. When the core is empty the signed domination number is
    exactly n, so the first record reports n instead of the degree formula.
    """
    if not profile.is_tree or profile.n < 2:
        reason = "n < 2" if profile.is_tree else "not a tree"
        return tuple([not_applicable(name, reason) for name in ("thm3_4_tree", "cor_tree", "dunbar_tree")])
    n = profile.n
    lt = profile.leaf_count
    s = profile.support_count
    if profile.delta_star is None:
        thm34 = _bound("thm3_4_tree", n, Fraction(n))
    else:
        cs = _ceil_half(profile.delta_star)
        thm34 = _bound("thm3_4_tree", n, Fraction((2 * cs - 1) * n + 2 * (lt - s + 2), 2 * cs + 1))
    corollary = _bound("cor_tree", n, Fraction(n + 4 + 2 * (lt - s), 3))
    dunbar = _bound("dunbar_tree", n, Fraction(n + 4, 3))
    return thm34, corollary, dunbar
