"""Every public record survives copy.copy, copy.deepcopy and a pickle round
trip with its type, its bytes and every PCM it holds read-only, and keeps a
repr that names its type: the two PCMs, AlternativePair, Tolerances, Ranking
and the result records."""

import copy
import pickle

import numpy as np
import pytest

from pcmanip import (
    AdditivePcm,
    AlternativePair,
    MultiplicativePcm,
    Tolerances,
    pair_report,
    project_to_tie,
    ranking_of,
    scan_all_pairs,
    tip_pair,
    to_multiplicative,
    verify_manipulation,
)

from refdata import EXAMPLE_A, EXAMPLE_PAIR


def _projection():
    return project_to_tie(EXAMPLE_A, EXAMPLE_PAIR)


def _tip():
    return tip_pair(_projection(), 3, 0.01)


RECORDS = {
    "AdditivePcm": lambda: AdditivePcm(EXAMPLE_A.copy()),
    "MultiplicativePcm": lambda: to_multiplicative(EXAMPLE_A),
    "AlternativePair": lambda: EXAMPLE_PAIR,
    "Tolerances": lambda: Tolerances(1e-3, 1e-5),
    "Ranking": lambda: ranking_of([1.0, 2.0, 1.0]),
    "ProjectionResult": _projection,
    "TipResult": _tip,
    "ManipulationReport": lambda: pair_report(EXAMPLE_A, EXAMPLE_PAIR),
    "ManipulationVerdict": lambda: verify_manipulation(EXAMPLE_A, _tip().tipped, EXAMPLE_PAIR, 3),
    "PairScanTable": lambda: scan_all_pairs(EXAMPLE_A),
    "PairScanRow": lambda: scan_all_pairs(EXAMPLE_A).rows[0],
}


def same(x, y) -> bool:
    """x and y of one type and equal, a PCM or an array by its bytes, a tuple field by field."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (AdditivePcm, MultiplicativePcm)):
        return same(x.values, y.values)
    if isinstance(x, np.ndarray):
        return (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(same, x, y))
    return x == y


def pcms(record) -> list:
    """The PCMs a record is or holds, field by field."""
    if isinstance(record, (AdditivePcm, MultiplicativePcm)):
        return [record]
    return [pcm for field in record for pcm in pcms(field)] if isinstance(record, tuple) else []


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_a_copy(name, how):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    copied = COPIES[how](record)
    assert same(copied, record)
    assert not any(pcm.values.flags.writeable for pcm in pcms(copied))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_repr_names_its_type(name):
    assert repr(RECORDS[name]()).startswith(f"{name}(")


def test_same_tells_pcm_bytes_apart():
    a = AdditivePcm(EXAMPLE_A.copy())
    edited = EXAMPLE_A.copy()
    edited[0, 0] = -0.0
    assert same(a, AdditivePcm(EXAMPLE_A.copy())) and not same(a, AdditivePcm(edited))
    assert not same(a, to_multiplicative(EXAMPLE_A))
