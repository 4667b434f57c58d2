"""Every case of the ledger corpus reproduces its committed digest: the
ledger, LRU order, diagnostics, trace rows, memory image and output of each
run are exact (see ``tests/ledger_corpus.py``)."""
import pytest

from ledger_corpus import CASES, digest, recorded

RECORDED = recorded()


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_its_digest(case):
    assert digest(case) == RECORDED[case]
