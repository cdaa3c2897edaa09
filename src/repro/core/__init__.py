"""Audit core: the paper's primary contribution as a reusable library.

Layering:

``metrics``
    Representation ratio (Equation 1), recall, the four-fifths rule.
``results``
    Labelled, columnar :class:`~repro.core.results.CompositionSet`
    collections (one size matrix per set) and the per-targeting
    :class:`~repro.core.results.TargetingAudit` record.
``stats``
    Box-plot statistics matching the paper's figures.
``audit``
    :class:`~repro.core.audit.AuditTarget` -- the measurement engine
    encoding each platform's quirks (restricted-interface indirection,
    LinkedIn demographic facets, Google cross-feature composition).
``checkpoint``
    Durable estimate store making killed audit runs resumable without
    re-querying (bit-identical output).
``discovery``
    Individual audits, random compositions, and the greedy discovery of
    the most skewed compositions.
``overlap``
    Pairwise overlaps and inclusion-exclusion union recall.
``removal``
    The remove-the-most-skewed-individuals mitigation sweep.
``rounding_study``
    Consistency, granularity, and rounding-sensitivity analyses of the
    platforms' size estimates.
"""

from repro.core.audit import AuditTarget, build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.core.discovery import (
    DEFAULT_MIN_REACH,
    audit_individuals,
    greedy_candidates,
    random_compositions,
    skewed_compositions,
    smallest_k_for_combinations,
)
from repro.core.metrics import (
    FOUR_FIFTHS_HIGH,
    FOUR_FIFTHS_LOW,
    least_skewed_ratio,
    recall_excluding,
    recall_including,
    representation_ratio,
    representation_ratio_from_sizes,
    violates_four_fifths,
)
from repro.core.mitigation import (
    AdvertiserHistory,
    CampaignReview,
    OutcomeMonitor,
    RemovalPolicy,
)
from repro.core.overlap import (
    OverlapStudy,
    UnionRecallEstimate,
    pairwise_overlaps,
    union_recall,
)
from repro.core.removal import RemovalCurve, RemovalPoint, removal_sweep
from repro.core.results import CompositionSet, SensitiveValue, TargetingAudit
from repro.core.rounding_study import (
    ConsistencyReport,
    GranularityReport,
    SensitivityReport,
    consistency_study,
    infer_granularity,
    ratio_interval,
    sensitivity_study,
    significant_digits,
)
from repro.core.stats import BoxStats, fraction_outside_four_fifths

__all__ = [
    "AdvertiserHistory",
    "AuditTarget",
    "CampaignReview",
    "OutcomeMonitor",
    "RemovalPolicy",
    "BoxStats",
    "CompositionSet",
    "ConsistencyReport",
    "DEFAULT_MIN_REACH",
    "EstimateCheckpoint",
    "FOUR_FIFTHS_HIGH",
    "FOUR_FIFTHS_LOW",
    "GranularityReport",
    "OverlapStudy",
    "RemovalCurve",
    "RemovalPoint",
    "SensitiveValue",
    "SensitivityReport",
    "TargetingAudit",
    "UnionRecallEstimate",
    "audit_individuals",
    "build_audit_targets",
    "consistency_study",
    "fraction_outside_four_fifths",
    "greedy_candidates",
    "infer_granularity",
    "least_skewed_ratio",
    "pairwise_overlaps",
    "random_compositions",
    "ratio_interval",
    "recall_excluding",
    "recall_including",
    "removal_sweep",
    "representation_ratio",
    "representation_ratio_from_sizes",
    "sensitivity_study",
    "significant_digits",
    "skewed_compositions",
    "smallest_k_for_combinations",
    "union_recall",
    "violates_four_fifths",
]
