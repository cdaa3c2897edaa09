"""Latent-factor generative model for targeting-attribute membership.

The audit phenomenon the paper measures -- AND-compositions of
targeting options being *more* demographically skewed than the options
individually -- requires a population model in which

1. attribute membership correlates with gender and age, and
2. attributes correlate with *each other* beyond what demographics
   explain (users cluster into interest profiles).

We use a standard logistic latent-factor model.  Each user ``u`` has a
gender code, an age code, and a latent interest vector ``z_u`` in
``R^K`` drawn from a normal whose mean depends on the user's
demographics (factors themselves can be gender- or age-tilted, e.g. a
"motorsports" factor with a male-shifted mean).  Each attribute ``a``
has a base log-odds, direct demographic loadings, and sparse factor
loadings; membership is an independent Bernoulli given ``(g, age, z)``:

.. math::

    \\Pr[a \\mid u] = \\sigma\\bigl(b_a + \\beta^g_a x_g(u)
        + \\beta^{age}_a[age(u)] + \\lambda_a \\cdot z_u\\bigr)

For rare attributes this yields a per-attribute representation ratio of
roughly ``exp(beta_g + lambda . (mu_male - mu_female))`` toward males,
and -- crucially -- compositions of two attributes that share a
demographically tilted factor are skewed super-multiplicatively, which
is exactly the behaviour observed in the paper's Tables 2 and 3 (e.g.
*Electrical engineering* AND *Cars*: 12.43 > 3.71 x 2.18 would suggest
multiplicative amplification alone is not the whole story).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.population.demographics import AGE_RANGES, Gender

__all__ = [
    "AttributeSpec",
    "LatentFactorModel",
    "MembershipKernel",
    "GENDER_CONTRAST",
]

#: Symmetric gender contrast codes: male -> +1/2, female -> -1/2, so the
#: male:female log-odds gap of an attribute equals ``beta_gender``.
GENDER_CONTRAST: dict[Gender, float] = {Gender.MALE: +0.5, Gender.FEMALE: -0.5}


@dataclass(frozen=True)
class AttributeSpec:
    """Generative parameters for one targeting attribute.

    Parameters
    ----------
    attr_id:
        Stable identifier, unique within a platform universe.
    feature:
        Targeting feature the attribute belongs to (e.g. ``"interests"``
        on Facebook, ``"topics"`` on Google).  Platforms restrict which
        features may be composed with which.
    category:
        Display category (e.g. ``"Industries"``), used for catalog
        browsing and the illustrative-example tables.
    name:
        Display name shown to advertisers.
    base_logit:
        Intercept; controls overall prevalence.
    beta_gender:
        Male-vs-female log-odds gap.  Positive values skew male.
    beta_age:
        Per-age-range log-odds offsets, in :class:`AgeRange` code order.
    loadings:
        Sparse latent-factor loadings as ``{factor_index: weight}``.
    """

    attr_id: str
    feature: str
    category: str
    name: str
    base_logit: float
    beta_gender: float
    beta_age: tuple[float, float, float, float]
    loadings: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.beta_age) != len(AGE_RANGES):
            raise ValueError(
                f"beta_age must have {len(AGE_RANGES)} entries, "
                f"got {len(self.beta_age)}"
            )

    def loading_vector(self, n_factors: int) -> np.ndarray:
        """Dense loading vector of length ``n_factors``."""
        vec = np.zeros(n_factors)
        for k, w in self.loadings.items():
            if not 0 <= k < n_factors:
                raise IndexError(f"factor index {k} out of range for K={n_factors}")
            vec[k] = w
        return vec


#: Number of (gender, age) demographic cells.  A record's cell code is
#: ``gender * len(AGE_RANGES) + age``, with any non-male gender code
#: treated as female exactly as the gender contrast does.
N_CELLS = 2 * len(AGE_RANGES)

#: Gender contrast and age code of each cell, in cell-code order.
_CELL_GENDER = np.repeat(
    [GENDER_CONTRAST[Gender.MALE], GENDER_CONTRAST[Gender.FEMALE]], len(AGE_RANGES)
)
_CELL_AGE = np.tile(np.arange(len(AGE_RANGES), dtype=np.intp), 2)


def demographic_cells(gender_codes: np.ndarray, age_codes: np.ndarray) -> np.ndarray:
    """Per-record demographic cell codes (``intp``), see :data:`N_CELLS`."""
    female = np.asarray(gender_codes) != int(Gender.MALE)
    return female * np.intp(len(AGE_RANGES)) + np.asarray(age_codes, dtype=np.intp)


def cell_logits(spec: AttributeSpec) -> np.ndarray:
    """Demographic log-odds of each cell: base, gender and age terms only.

    Uses the same float64 operations in the same order as evaluating
    the terms per record, so gathering this table by cell code is
    bitwise-equal to the per-record sum.
    """
    table = np.full(N_CELLS, spec.base_logit, dtype=np.float64)
    table += spec.beta_gender * _CELL_GENDER
    table += np.asarray(spec.beta_age)[_CELL_AGE]
    return table


def _sigmoid_inplace(
    x: np.ndarray, work: np.ndarray | None = None, nonneg: np.ndarray | None = None
) -> np.ndarray:
    """Overwrite ``x`` with its logistic function and return it.

    With ``e = exp(-|x|)`` this is ``1 / (1 + e)`` where ``x >= 0`` and
    ``e / (1 + e)`` elsewhere, so ``exp`` never overflows.  ``work``
    (float) and ``nonneg`` (bool) are optional scratch arrays shaped
    like ``x``.
    """
    nonneg = np.greater_equal(x, 0.0, out=nonneg)
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = np.add(e, 1.0, out=work)
    np.copyto(e, 1.0, where=nonneg)
    return np.divide(e, denominator, out=e)


class MembershipKernel:
    """Evaluates the membership model over one fixed set of records.

    Holds the records' demographic cell codes, a contiguous copy of
    their latents with one row per factor (``latents.T``), and three
    scratch arrays of the record count, so evaluating an attribute
    allocates nothing proportional to the records.  :meth:`fork` gives
    a kernel with scratch of its own for another thread, sharing the
    cell codes and factor rows.  The demographic part of the logit
    comes from an 8-entry :func:`cell_logits` table; attributes without
    factor loadings take the sigmoid of that table too and only gather
    probabilities.  Cell codes are 0-7 by construction, so the gathers
    use ``mode="clip"``: the same values as the default ``"raise"``,
    without its buffered copy of ``out``.  Returned arrays are the
    kernel's scratch and are overwritten by the next call.
    """

    def __init__(
        self,
        model: "LatentFactorModel",
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
        latents: np.ndarray,
    ):
        self.n_factors = model.n_factors
        self.cells = demographic_cells(gender_codes, age_codes)
        self.factors = np.ascontiguousarray(latents.T)
        self._allocate_scratch()

    def _allocate_scratch(self) -> None:
        n = self.cells.shape[0]
        self._values = np.empty(n)  # later loading products, logits, probabilities
        self._work = np.empty(n)  # loadings term, denominator, then draws
        self._flags = np.empty(n, dtype=bool)  # logit signs, then members

    def fork(self) -> "MembershipKernel":
        """A kernel over the same cell codes and factor rows with its own scratch."""
        kernel = copy.copy(self)
        kernel._allocate_scratch()
        return kernel

    def logits(self, spec: AttributeSpec) -> np.ndarray:
        """Per-record membership log-odds for ``spec``.

        The loading term is ``sum(lambda_k * z_k)`` over the nonzero
        loadings only, summed left to right in ascending factor order,
        and is added to the demographic part last: ``cell + (a + b)``.
        Plain float64 products and sums, so the bits do not depend on a
        BLAS kernel or thread count.
        """
        term = None
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
            for k in np.flatnonzero(lam):
                if term is None:
                    term = np.multiply(self.factors[k], lam[k], out=self._work)
                else:
                    term += np.multiply(self.factors[k], lam[k], out=self._values)
        logits = np.take(
            cell_logits(spec), self.cells, out=self._values, mode="clip"
        )
        if term is not None:
            logits += term
        return logits

    def probabilities(self, spec: AttributeSpec) -> np.ndarray:
        """Per-record Bernoulli membership probabilities for ``spec``."""
        if not spec.loadings:
            table = _sigmoid_inplace(cell_logits(spec))
            return np.take(table, self.cells, out=self._values, mode="clip")
        return _sigmoid_inplace(self.logits(spec), self._work, self._flags)

    def members(self, spec: AttributeSpec, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli memberships for ``spec``: one uniform draw per record."""
        probs = self.probabilities(spec)
        draws = rng.random(out=self._work)
        return np.less(draws, probs, out=self._flags)


@dataclass(frozen=True)
class LatentFactorModel:
    """Hyperparameters of the latent-interest space.

    Parameters
    ----------
    n_factors:
        Dimensionality ``K`` of the latent interest space.
    factor_gender_shift:
        Length-``K`` vector: factor ``k``'s mean for males is
        ``+shift[k]/2`` and for females ``-shift[k]/2``.
    factor_age_shift:
        ``(K, 4)`` array of per-age mean offsets for each factor.
    noise_scale:
        Standard deviation of the user-specific factor noise.
    """

    n_factors: int
    factor_gender_shift: tuple[float, ...]
    factor_age_shift: tuple[tuple[float, float, float, float], ...]
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.factor_gender_shift) != self.n_factors:
            raise ValueError("factor_gender_shift length must equal n_factors")
        if len(self.factor_age_shift) != self.n_factors:
            raise ValueError("factor_age_shift length must equal n_factors")
        for row in self.factor_age_shift:
            if len(row) != len(AGE_RANGES):
                raise ValueError("each factor_age_shift row needs 4 entries")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")

    # -- sampling ---------------------------------------------------------

    def sample_latents(
        self,
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw the latent matrix ``Z`` with shape ``(n_users, K)``.

        ``Z = means + noise * noise_scale``, where a user's mean for
        factor ``k`` is ``g * factor_gender_shift[k]`` (``g`` = +1/2 for
        males, -1/2 otherwise) plus ``factor_age_shift[k][age]``.  The
        noise is drawn into the result and scaled in place; each
        factor's mean column is then gathered from an 8-entry per-cell
        table (the same two float64 operations as per user) and added
        in place.  The cell codes and one column are the only
        temporaries, and, as addition commutes, the bits equal those of
        the whole-matrix formula.
        """
        cells = demographic_cells(gender_codes, age_codes)
        shift = np.asarray(self.factor_gender_shift)  # (K,)
        age_shift = np.asarray(self.factor_age_shift)  # (K, 4)
        cell_means = _CELL_GENDER[:, None] * shift[None, :]
        cell_means += age_shift.T[_CELL_AGE]
        latents = rng.standard_normal((cells.shape[0], self.n_factors))
        latents *= self.noise_scale
        column = np.empty(cells.shape[0])
        for k in range(self.n_factors):
            latents[:, k] += np.take(cell_means[:, k], cells, out=column, mode="clip")
        return latents

    # -- evaluation --------------------------------------------------------

    def approximate_gender_ratio(self, spec: AttributeSpec) -> float:
        """Rare-attribute approximation of the male representation ratio.

        For small base rates, ``p_male / p_female ~= exp(total male-female
        log-odds gap)``, where the gap combines the direct gender loading
        with the factor-mean separation projected onto the attribute's
        loadings.  Used for calibration sanity checks, not measurement.
        """
        gap = spec.beta_gender
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
            gap += float(lam @ np.asarray(self.factor_gender_shift))
        return float(np.exp(gap))


def default_model(
    n_factors: int = 8,
    gender_shift_scale: float = 0.9,
    age_shift_scale: float = 0.8,
    seed: int = 7,
) -> LatentFactorModel:
    """Build a generic latent model with demographically tilted factors.

    Half the factors are gender-tilted (alternating direction), and all
    factors receive a smooth age tilt, so that attribute pairs sharing a
    factor compose super-multiplicatively for both sensitive attributes.
    """
    rng = np.random.default_rng(seed)
    gender_shift = []
    age_shift: list[tuple[float, float, float, float]] = []
    for k in range(n_factors):
        direction = 1.0 if k % 2 == 0 else -1.0
        magnitude = gender_shift_scale if k < n_factors // 2 else 0.2
        gender_shift.append(direction * magnitude * float(rng.uniform(0.6, 1.0)))
        # Smooth monotone-ish tilt across the four age buckets.
        anchor = float(rng.uniform(-1.0, 1.0)) * age_shift_scale
        profile = np.linspace(-anchor, anchor, len(AGE_RANGES))
        profile += rng.normal(0.0, 0.1 * age_shift_scale, len(AGE_RANGES))
        profile -= profile.mean()
        age_shift.append(tuple(float(x) for x in profile))
    return LatentFactorModel(
        n_factors=n_factors,
        factor_gender_shift=tuple(gender_shift),
        factor_age_shift=tuple(age_shift),
        noise_scale=1.0,
    )
