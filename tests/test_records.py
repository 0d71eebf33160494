"""Contracts of the audit's records: frozen certificates, slotted value records."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from signeddom import (
    Bound,
    CorpusSpec,
    PartitionStats,
    SignedFunction,
    VertexSet,
    audit_graph,
    cycle_graph,
    derive_seed,
    partition_stats,
    path_graph,
    random_connected,
    random_tree,
    structural_profile,
)
from signeddom.bounds import not_applicable, tree_lower_bounds

# One instance of each record, with the repr it has always printed.
REPRS = {
    "CorpusSpec": (
        lambda: CorpusSpec("random_connected", 4, 9, count=2, p=0.3, seed=7),
        "CorpusSpec(kind='random_connected', n_min=4, n_max=9, count=2, p=0.3, seed=7)",
    ),
    "Bound": (
        lambda: Bound("cor_tree", "lower", Fraction(10, 3), 4, True),
        "Bound(name='cor_tree', kind='lower', raw=Fraction(10, 3), tightened=4, applicable=True, reason=None)",
    ),
    "Bound n/a": (
        lambda: not_applicable("thm3_3", "n = 0"),
        "Bound(name='thm3_3', kind='lower', raw=None, tightened=None, applicable=False, reason='n = 0')",
    ),
    "SignedFunction": (lambda: SignedFunction((1, -1, 1)), "SignedFunction(assignment=(1, -1, 1))"),
    "VertexSet": (lambda: VertexSet(0b101, "tuple_dominating", 1), "VertexSet(mask=5, role='tuple_dominating', k=1)"),
    "StructuralProfile": (
        lambda: structural_profile(path_graph(4)),
        "StructuralProfile(n=4, m=3, delta=1, Delta=2, leaf_mask=9, leaf_count=2, support_count=2, odd_count=2,"
        " delta_star=None, is_connected=True, is_tree=True)",
    ),
    "PartitionStats": (
        lambda: PartitionStats(e_plus=2, e_minus=0, cut=1),
        "PartitionStats(e_plus=2, e_minus=0, cut=1)",
    ),
    "BoundReport": (
        lambda: audit_graph(path_graph(3)),
        "BoundReport(graph_id='Bg', graph6='Bg', n=3, m=2, profile=StructuralProfile(n=3, m=2, delta=1, Delta=2,"
        " leaf_mask=5, leaf_count=2, support_count=1, odd_count=2, delta_star=None, is_connected=True, is_tree=True),"
        " gamma_s=3, witness=SignedFunction(assignment=(1, 1, 1)), gamma=1, rho=1, limited_packing_k=None,"
        " limited_packing_value=None, tuple_k=2, tuple_value=3, checks={'lemma_3_1_i': True, 'lemma_3_1_ii': True,"
        " 'claim1_limited_packing': True, 'claim2_tuple_dom': True, 'eq1': None, 'eq2': None, 'chain_Lk': True,"
        " 'chain_tuple': True})",
    ),
}
FROZEN = {
    "CorpusSpec": ("kind", "n_min", "n_max", "count", "p", "seed"),
    "SignedFunction": ("assignment",),
    "VertexSet": ("mask", "role", "k"),
}


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
    with pytest.raises(AttributeError):
        f.assignment = (1, 1, 1)
    with pytest.raises(AttributeError):
        vs.k = 2
    # A vertex set stores its mask and nothing else.
    assert not hasattr(vs, "__dict__")
    # A copied or unpickled labeling is rebuilt from its assignment, mask included.
    for rebuilt in (copy.copy(f), pickle.loads(pickle.dumps(f))):
        assert rebuilt == f and rebuilt is not f and rebuilt.plus_mask == 0b101


def test_value_records_are_slotted():
    g = random_tree(7, derive_seed(808, 100))
    profile = structural_profile(g)
    records = [
        profile,
        partition_stats(g, SignedFunction((1,) * g.n)),
        not_applicable("thm3_3", "n = 0"),
        *tree_lower_bounds(profile),
        SignedFunction((1, -1)),
    ]
    for record in records:
        assert not hasattr(record, "__dict__")
        assert copy.copy(record) == record


@pytest.mark.parametrize("name", REPRS)
def test_records_keep_their_repr(name):
    make, text = REPRS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_their_compared_fields(name):
    record = REPRS[name][0]()
    # A labeling's plus mask is derived, so it takes no part in the hash.
    assert hash(record) == hash(tuple(getattr(record, field) for field in FROZEN[name]))
    assert hash(record) == hash(REPRS[name][0]()) and record == REPRS[name][0]()
    for field in FROZEN[name] + (("_plus",) if name == "SignedFunction" else ()):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", ("Bound", "StructuralProfile", "PartitionStats", "BoundReport"))
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(REPRS[name][0]())


@pytest.mark.parametrize("name", REPRS)
def test_records_survive_pickle_and_copy(name):
    record = REPRS[name][0]()
    for rebuilt in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(rebuilt) is type(record) and rebuilt == record and repr(rebuilt) == repr(record)


def test_bound_report_equality_compares_the_bound_section(violate_thm3_3):
    g = cycle_graph(6)
    plain = audit_graph(g, "C6")
    assert audit_graph(g, "C6") == plain and audit_graph(g, "C6").row is not plain.row
    violate_thm3_3()
    patched = audit_graph(g, "C6")
    assert patched.to_json_text() != plain.to_json_text()
    assert patched != plain


def test_bound_report_survives_pickle():
    for g in (random_connected(9, 0.5, derive_seed(808, 200)), random_tree(8, derive_seed(808, 201))):
        report = audit_graph(g)
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
        assert clone.witness.plus_mask == report.witness.plus_mask
        assert clone.to_json_text() == report.to_json_text()
        assert clone.csv_row() == report.csv_row()
