"""Seeded inputs: the three-dataset corpus, the query key spaces and churn documents.

Everything here is a pure function of the workload seed.  The program under
test only ever receives the XML text and the query strings built here.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Sequence, Tuple

from repro.datasets import build_dataset
from repro.datasets.queries import BENCHMARK_QUERIES, QUERY_SETS
from repro.xmlkit.model import Document
from repro.xmlkit.writer import document_to_string

DATASETS = ("shakespeare", "protein", "auction")
#: Documents per dataset and the generators' scale factor.  Six partitions
#: keep fan-out and merge visible while a cold open with a partition cache
#: smaller than the corpus still runs the 14 queries in about a second.
DOCS_PER_DATASET = 2
SCALE = 2
#: XMark people per auction document at ``SCALE`` (the generator's 20/unit).
PEOPLE_PER_DOC = 20 * SCALE


def paper_queries() -> List[Tuple[str, str]]:
    """The paper's 14 queries in Fig. 10 / Fig. 15 order: (name, text)."""
    rows = [(name, text) for dataset in DATASETS for name, text in QUERY_SETS[dataset].items()]
    rows += [(name, BENCHMARK_QUERIES[name]) for name in ("Q1", "Q2", "Q4", "Q5", "Q6")]
    return rows


class Corpus:
    """The generated documents of one seed, as XML text plus family values."""

    def __init__(self, seed: int) -> None:
        rng = Random(seed)
        self.seed = seed
        self.names: List[str] = []
        self.texts: List[str] = []
        self.scene_titles: List[str] = []
        self.authors: List[str] = []
        for dataset in DATASETS:
            for index in range(DOCS_PER_DATASET):
                document = build_dataset(dataset, scale=SCALE, seed=rng.randrange(1 << 30))
                self._collect_values(document)
                self.names.append(f"{dataset}-{index}.xml")
                self.texts.append(document_to_string(document, pretty=False))
        self.scene_titles = sorted(set(self.scene_titles))
        self.authors = sorted(set(self.authors))

    @property
    def xml_bytes(self) -> int:
        """Total UTF-8 bytes of XML handed to the program."""
        return sum(len(text.encode("utf-8")) for text in self.texts)

    def _collect_values(self, document: Document) -> None:
        for element in document.iter():
            text = (element.text or "").strip()
            if not text or '"' in text:
                continue
            if element.tag == "TITLE" and text.startswith("SCENE"):
                self.scene_titles.append(text)
            elif element.tag == "author":
                self.authors.append(text)


def family_queries(corpus: Corpus) -> Dict[str, List[str]]:
    """Parameterised value-predicate families over values the corpus holds."""
    return {
        "Q1": [
            f'/site/people/person[@id = "person{k}"]/name' for k in range(PEOPLE_PER_DOC)
        ],
        "QP2": [
            f'/ProteinDatabase/ProteinEntry//authors/author = "{name}"'
            for name in corpus.authors
        ],
        "QS3": [
            f'/PLAYS/PLAY/ACT/SCENE[TITLE = "{title}"]//LINE'
            for title in corpus.scene_titles
        ],
    }


def zipf_key_space(corpus: Corpus, seed: int) -> List[str]:
    """Query texts in popularity-rank order (rank 1 first).

    Ranks interleave the 14 fixed queries (in paper order, so the
    expensive QS1 is always the hottest key) with the three families, whose
    members are shuffled by the seed.  The structure of the ranking is the
    same for every seed; only which family member holds a rank varies.
    """
    rng = Random(seed ^ 0x5EED)
    lanes = [[text for _, text in paper_queries()]]
    for members in family_queries(corpus).values():
        members = list(members)
        rng.shuffle(members)
        lanes.append(members)
    ranked: List[str] = []
    while any(lanes):
        for lane in lanes:
            if lane:
                ranked.append(lane.pop(0))
    return ranked


def zipf_sequence(keys: Sequence[str], count: int, seed: int, exponent: float) -> List[str]:
    """``count`` keys drawn from a Zipf(``exponent``) law over ``keys``' ranks."""
    rng = Random(seed ^ 0x21FF)
    weights = [1.0 / (rank ** exponent) for rank in range(1, len(keys) + 1)]
    return rng.choices(list(keys), weights=weights, k=count)


_CHURN_TEMPLATES = (
    "<PLAYS><PLAY><TITLE>Churn {n}</TITLE><ACT><TITLE>ACT I</TITLE><SCENE>"
    "<TITLE>SCENE I. Churn {n}.</TITLE><SPEECH><SPEAKER>CHURN</SPEAKER>"
    "<LINE>{w} line one.</LINE><LINE>{w} line two.</LINE></SPEECH></SCENE></ACT>"
    "</PLAY></PLAYS>",
    "<ProteinDatabase><ProteinEntry><protein><name>{w} protein {n}</name></protein>"
    "<reference><refinfo><authors><author>Churn, {n}.</author></authors>"
    "<citation>{w}</citation><year>2004</year></refinfo></reference>"
    "</ProteinEntry></ProteinDatabase>",
    '<site><people><person id="person{p}"><name>{w} Churn {n}</name></person>'
    "</people><open_auctions><open_auction><bidder><increase>{n}.50</increase>"
    "<personref person=\"person{p}\"/></bidder><reserve>{n}.00</reserve>"
    "</open_auction></open_auctions></site>",
)

_WORDS = ("amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "haven")


def churn_document(seed: int, n: int) -> str:
    """The ``n``-th small churn document: one of the three vocabularies.

    Churn documents use a subset of a dataset's vocabulary and nesting, so
    they join the existing scheme groups and contribute answers to the
    paper queries and families (QS1, QP1, Q1 over person ids, Q2, Q4 ...).
    """
    rng = Random(seed * 1_000_003 + n)
    return _CHURN_TEMPLATES[n % 3].format(
        n=n, w=rng.choice(_WORDS), p=rng.randrange(PEOPLE_PER_DOC)
    )
