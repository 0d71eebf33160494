"""Contracts of the audit's records: frozen certificates, slotted value records."""

import dataclasses
import pickle
import random

import pytest

from signeddom import (
    SignedFunction,
    VertexSet,
    audit_graph,
    derive_seed,
    partition_stats,
    random_connected,
    random_tree,
    structural_profile,
)
from signeddom.bounds import not_applicable, tree_lower_bounds


def test_signed_function_rejects_values_other_than_plus_minus_one():
    for assignment in ((1, 0, -1), (2,), (1, -1, -2), (1, None)):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            SignedFunction(assignment)


@pytest.mark.parametrize("n", range(13))
def test_signed_function_masks_and_sets_follow_the_assignment(n):
    rng = random.Random(derive_seed(808, n))
    for _ in range(20):
        assignment = tuple(rng.choice((-1, 1)) for _ in range(n))
        f = SignedFunction(assignment)
        plus = {v for v, a in enumerate(assignment) if a == 1}
        minus = {v for v, a in enumerate(assignment) if a == -1}
        assert f.plus_mask == sum(1 << v for v in plus)
        assert f.minus_mask == sum(1 << v for v in minus)
        assert f == SignedFunction.from_minus_mask(n, sum(1 << v for v in minus))
        assert hash(f) == hash(SignedFunction(tuple(assignment)))


def test_certificates_are_frozen():
    f = SignedFunction((1, -1, 1))
    vs = VertexSet(1, "tuple_dominating", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.assignment = (1, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        vs.k = 2
    # A vertex set stores its mask and nothing else.
    assert not hasattr(vs, "__dict__")
    # A replaced labeling gets its own mask.
    assert dataclasses.replace(f, assignment=(-1, 1)).plus_mask == 0b10


def test_value_records_are_slotted():
    g = random_tree(7, derive_seed(808, 100))
    profile = structural_profile(g)
    records = [
        profile,
        partition_stats(g, SignedFunction((1,) * g.n)),
        not_applicable("thm3_3", "n = 0"),
        *tree_lower_bounds(profile),
    ]
    for record in records:
        assert not hasattr(record, "__dict__")
        assert dataclasses.replace(record) == record


def test_bound_report_survives_pickle():
    for g in (random_connected(9, 0.5, derive_seed(808, 200)), random_tree(8, derive_seed(808, 201))):
        report = audit_graph(g)
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        assert copy.witness.plus_mask == report.witness.plus_mask
        assert copy.to_json_text() == report.to_json_text()
        assert copy.csv_row() == report.csv_row()
