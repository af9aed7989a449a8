"""Expected answers: the naive evaluator as oracle, and the library as reference.

Answers are compared as ordered lists, so both multiplicity and document
order are checked, not just membership.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.collection import BLASCollection
from repro.core.dlabel import dlabels_for_document
from repro.xmlkit.parser import parse_string
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath

Answer = List[Tuple[int, int]]


def oracle_starts(texts: Sequence[str], queries: Sequence[str]) -> Dict[str, List[List[int]]]:
    """Per query, per document (doc_id = position in ``texts``), the oracle's starts."""
    paths = {query: parse_xpath(query) for query in queries}
    answers: Dict[str, List[List[int]]] = {query: [] for query in queries}
    for text in texts:
        document = parse_string(text)
        labels = dlabels_for_document(document)
        for query, path in paths.items():
            answers[query].append([labels[id(node)].start for node in evaluate(document, path)])
    return answers


def concatenate(per_document: Sequence[Sequence[int]], doc_ids: Sequence[int]) -> Answer:
    """The collection answer: per-document answers in ascending doc_id order."""
    pairs = sorted(zip(doc_ids, per_document))
    return [(doc_id, start) for doc_id, starts in pairs for start in starts]


def record_rows(records) -> List[tuple]:
    """Comparable rows of library records or decoded ``/query`` records."""
    rows = []
    for record in records:
        if isinstance(record, dict):
            rows.append((record["doc_id"], record["tag"], record["start"],
                         record["level"], record["data"]))
        else:
            rows.append((record.doc_id, record.tag, record.start, record.level, record.data))
    return rows


class LibraryReference:
    """Library answers from a saved store, memoized per query text."""

    def __init__(self, store: str) -> None:
        self.collection = BLASCollection.open(store)
        self._answers: Dict[str, tuple] = {}

    def answer(self, query: str) -> tuple:
        """``(count, rows)`` of the library's answer to ``query``."""
        cached = self._answers.get(query)
        if cached is None:
            result = self.collection.query(query)
            cached = (result.count, record_rows(result.records))
            self._answers[query] = cached
        return cached
