#!/usr/bin/env python
"""Audit derived audiences: custom lists, retargeting, lookalikes.

Attribute targeting is only one channel the paper catalogues
(Section 2.1); this example exercises the other three on the simulated
Facebook platform and audits each resulting audience's gender skew:

1. a **custom audience** from an uploaded customer list (PII matching);
2. a **retargeting audience** from a tracking pixel on a demographically
   skewed website;
3. a **lookalike** expansion of the retargeting audience -- and the
   **special ad audience** variant the restricted interface substitutes
   for it, which drops demographic features from the similarity but
   (as the audit shows) does not reach parity.

Run:
    python examples/derived_audience_audit.py
"""

from __future__ import annotations

import numpy as np

from repro import build_audit_session
from repro.core.metrics import violates_four_fifths
from repro.platforms.audiences import TrackingPixel
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender
from repro.reporting import Table, format_count, format_ratio

GENDER = SENSITIVE_ATTRIBUTES["gender"]


def main() -> None:
    print("building simulated platforms ...")
    session = build_audit_session(n_records=40_000, seed=7)
    platform = session.suite.facebook
    service = platform.audiences
    target = session.targets["facebook"]
    restricted_target = session.targets["facebook_restricted"]

    # 1. Upload a customer list: the platform matches PII to users.
    uploads = list(service.pii.records(range(0, 8_000, 2)))
    customers = service.create_custom_audience("customer list", uploads)
    print(
        f"uploaded {len(uploads)} records, matched "
        f"{customers.matched_count} users"
    )

    # 2. A tracking pixel on a male-leaning website collects visitors.
    male_factor = int(np.argmax(platform.model.factor_gender_shift))
    pixel = TrackingPixel(
        pixel_id="performance-parts-shop",
        base_logit=-3.0,
        direction={male_factor: 1.2},
    )
    visitors = service.create_pixel_audience("site visitors", pixel, seed=3)

    # 3. Expansions of the visitor audience.
    lookalike = service.create_lookalike("visitors lookalike", visitors)
    special = service.create_special_ad_audience(
        "visitors special ad audience", visitors
    )

    table = Table(["audience", "kind", "size", "male ratio", "four-fifths"])
    for audience, audit_target in (
        (customers, target),
        (visitors, target),
        (lookalike, target),
        (special, restricted_target),  # what a housing ad could actually use
    ):
        audit = audit_target.audit((audience.audience_id,), GENDER)
        ratio = audit.ratio(Gender.MALE)
        table.add_row(
            audience.name,
            audience.kind,
            format_count(audit.total_reach),
            format_ratio(ratio),
            "VIOLATES" if violates_four_fifths(ratio) else "ok",
        )

    print()
    print("Gender audit of derived audiences (Facebook simulation)")
    print(table.render())
    print()
    print(
        "The special ad audience drops gender/age from the similarity\n"
        "features, yet inherits skew through correlated interests —\n"
        "the same composition lesson, one level up."
    )


if __name__ == "__main__":
    main()
