"""Ablation: greedy vs exhaustive composition discovery (DESIGN.md 3).

The paper's greedy method (combine the most skewed individuals) only
*approximates* the most skewed compositions.  On a reduced catalog where
the exhaustive pairwise crawl is affordable, this bench quantifies how
much of the true top set the greedy candidates capture.
"""

from __future__ import annotations

from itertools import combinations

from benchmarks.conftest import run_once
from repro import build_audit_session
from repro.core import audit_individuals, greedy_candidates
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]
CATALOG_SLICE = 60  # exhaustive crawl over C(60,2) = 1,770 pairs
TOP_K = 50


def test_ablation_greedy_vs_exhaustive(benchmark):
    def run():
        session = build_audit_session(n_records=15_000, seed=9)
        target = session.targets["facebook"]
        options = target.study_option_ids()[:CATALOG_SLICE]
        individual = audit_individuals(target, GENDER, option_ids=options)

        # Exhaustive ground truth: audit every pair, take the true top-K.
        pairs = [tuple(sorted(p)) for p in combinations(options, 2)]
        audits = target.audit_many(pairs, GENDER).filtered(10_000).audits
        audits.sort(key=lambda a: a.ratio(Gender.MALE), reverse=True)
        true_top = {a.options for a in audits[:TOP_K]}

        # Greedy approximation with a candidate budget of K pairs.
        greedy = set(
            greedy_candidates(
                target, individual, Gender.MALE, "top", n=TOP_K, seed=0
            )
        )
        captured = len(true_top & greedy) / len(true_top)
        return captured, len(pairs)

    captured, n_pairs = run_once(benchmark, run)

    # Greedy is a lower bound but must capture a solid share of the
    # true top compositions to be a usable approximation.
    assert captured > 0.3

    benchmark.extra_info["true_top_captured"] = round(captured, 3)
    benchmark.extra_info["exhaustive_pairs"] = n_pairs
    benchmark.extra_info["note"] = (
        "paper accepts greedy as an approximate lower bound (Section 3)"
    )
