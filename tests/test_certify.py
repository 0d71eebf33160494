"""``certify.check``: the one re-check of a value against its certificate."""

import pytest

from signeddom.certify import SignedFunction, VertexSet, check
from signeddom.graphs import Graph, mask_of

# C10 with chords i ~ i + 2: 4-regular, so L_k is at k = 2 and gamma_xk at k = 3.
C10_1_2 = Graph(10, [(i, (i + d) % 10) for i in range(10) for d in (1, 2)])

# (name, value, role, k, members, vertices invalid once the highest member is
# swapped for the lowest non-member). gamma_s's certificate is -1 on members.
CLAIMS = [
    ("gamma_s", 2, None, None, {0, 1, 5, 6}, [0, 1, 2, 3]),
    ("gamma", 2, "tuple_dominating", 1, {0, 5}, [4, 5, 6, 7]),
    ("rho", 2, "limited_packing", 1, {0, 5}, [0, 1, 2, 9]),
    ("L_k", 4, "limited_packing", 2, {0, 1, 5, 6}, [0, 1, 2, 3]),
    ("gamma_xk", 6, "tuple_dominating", 3, {0, 1, 2, 5, 6, 7}, [6, 7, 8, 9]),
]


def _cert(role, k, members):
    if role is None:
        return SignedFunction.from_minus_mask(C10_1_2.n, mask_of(members))
    return VertexSet(mask_of(members), role, k)


@pytest.mark.parametrize("name, value, role, k, members, swapped_bad", CLAIMS, ids=[c[0] for c in CLAIMS])
def test_check(name, value, role, k, members, swapped_bad):
    g = C10_1_2
    has = "a witness of weight" if role is None else "a certificate of size"
    assert check(g, name, value, _cert(role, k, members), role, k) is None
    # The value off by one: the certificate is valid but of another size.
    for off in (value - 1, value + 1):
        assert check(g, name, off, _cert(role, k, members), role, k) == (
            f"{name} = {off} has {has} {value} invalid at vertices []"
        )
    # One member swapped: the size holds, the validity does not.
    swapped = members - {max(members)} | {min(set(range(g.n)) - members)}
    assert check(g, name, value, _cert(role, k, swapped), role, k) == (
        f"{name} = {value} has {has} {value} invalid at vertices {swapped_bad}"
    )
    # The right members as a certificate of another kind than the caller
    # names: another role, another k, a vertex set for gamma_s, a sign
    # assignment for a subset value.
    want = "a sign assignment" if role is None else f"a {role} set at k = {k}"
    other_role = "limited_packing" if role == "tuple_dominating" else "tuple_dominating"
    wrong = [(_cert(other_role, k or 1, members), f"a {other_role} set at k = {k or 1}")]
    if role is not None:
        wrong.append((_cert(role, k + 1, members), f"a {role} set at k = {k + 1}"))
        wrong.append((_cert(None, None, members), "a sign assignment"))
    for cert, got in wrong:
        assert check(g, name, value, cert, role, k) == f"{name} = {value} has a certificate for {got}, not for {want}"
