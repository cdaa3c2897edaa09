#!/usr/bin/env python
"""Quickstart: audit one targeting composition on one platform.

Reproduces the paper's flagship example in miniature: on Facebook's
*restricted* (special-ad-category) interface -- the one designed to
prevent discriminatory targeting -- combine two innocuous-looking
interests and watch the gender skew of the audience grow.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro import build_audit_session
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]


def main() -> None:
    # One call builds the whole stack: synthetic populations, the four
    # platform interfaces, the fake-HTTP API, and the audit targets.
    print("building simulated platforms (this takes a few seconds) ...")
    session = build_audit_session(n_records=40_000, seed=7)
    target = session.targets["facebook_restricted"]
    names = target.option_names()

    # The paper's Table 2 example: Electrical engineering AND Cars.
    ee = "fb:interests:interests--electrical-engineering"
    cars = "fb:interests:interests--cars"

    for options in [(ee,), (cars,), (ee, cars)]:
        audit = target.audit(options, GENDER)
        ratio = audit.ratio(Gender.MALE)
        print(
            f"  {audit.describe(names):<55s} "
            f"male ratio = {ratio:5.2f}   reach = {audit.total_reach:,}"
        )

    pair = target.audit((ee, cars), GENDER)
    singles = [target.audit((o,), GENDER) for o in (ee, cars)]
    amplified = pair.ratio(Gender.MALE) > max(
        s.ratio(Gender.MALE) for s in singles
    )
    print()
    print(
        "composition more skewed than either component:"
        f" {'YES' if amplified else 'no'}"
        "  (paper: 3.71 and 2.18 individually -> 12.43 combined)"
    )
    print(f"\nsize queries issued through the fake API: "
          f"{session.total_api_requests()}")


if __name__ == "__main__":
    main()
