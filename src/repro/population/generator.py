"""Population sampling: demographics, latent interests, and attributes.

A :class:`Population` is the concrete substrate one simulated platform
runs on: demographic code arrays, the latent interest matrix, and an
:class:`~repro.population.bitsets.AudienceIndex` of realised attribute
memberships.  Each record represents ``scale`` real users so the
platforms report audience sizes in the (hundreds-of-millions) ranges the
paper works with while simulation stays laptop-sized.

Attribute realisation is chunk-free and per-attribute: for each
:class:`~repro.population.model.AttributeSpec` we evaluate the logistic
model over all users, draw Bernoulli memberships, and pack them into a
bit vector.  Each population owns one
:class:`~repro.population.model.MembershipKernel`: per-record
demographic cell codes plus two float and one bool scratch array of
``n_records`` entries, reused by every attribute.  Apart from packing
its bit vector, realising an attribute allocates nothing of record
length.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.population.bitsets import AudienceIndex, BitVector
from repro.population.demographics import DemographicMarginals
from repro.population.model import (
    AttributeSpec,
    LatentFactorModel,
    MembershipKernel,
)

__all__ = ["Population", "PopulationGenerator"]


@dataclass
class Population:
    """A realised synthetic population for one platform.

    Attributes
    ----------
    gender_codes / age_codes:
        Per-record demographic codes (:class:`Gender` /
        :class:`AgeRange` integer values).
    latents:
        ``(n_records, K)`` latent interest matrix.
    scale:
        Real users represented by each record; all audience sizes
        reported by the platform are record counts times ``scale``.
    index:
        Bitset index of realised attribute memberships plus the
        demographic base vectors.
    model:
        The generative model used (needed to realise more attributes
        later, e.g. searchable free-form options).
    seed:
        Seed the population was generated from, for provenance.
    """

    gender_codes: np.ndarray
    age_codes: np.ndarray
    latents: np.ndarray
    scale: float
    index: AudienceIndex
    model: LatentFactorModel
    seed: int

    @property
    def n_records(self) -> int:
        """Number of simulated records."""
        return int(self.gender_codes.shape[0])

    @property
    def total_users(self) -> float:
        """Total real users represented."""
        return self.n_records * self.scale

    def users(self, vector: BitVector) -> float:
        """Real-user size of an audience bit vector."""
        return vector.count() * self.scale

    @cached_property
    def _kernel(self) -> MembershipKernel:
        """Membership evaluator holding this population's scratch buffers."""
        return MembershipKernel(
            self.model, self.gender_codes, self.age_codes, self.latents
        )

    def realise_attribute(self, spec: AttributeSpec) -> BitVector:
        """Sample membership for one attribute and register it.

        Each attribute draws from a stream keyed on ``(seed, attr_id)``,
        so realisation order never affects memberships and attributes
        added later (e.g. free-form searchable options) are reproducible.
        """
        if spec.attr_id in self.index:
            return self.index.attribute(spec.attr_id)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(spec.attr_id.encode())])
        )
        vector = BitVector.from_bool(self._kernel.members(spec, rng))
        self.index.add_attribute(spec.attr_id, vector)
        return vector


class PopulationGenerator:
    """Samples :class:`Population` objects from a calibrated model.

    Parameters
    ----------
    marginals:
        Joint gender/age marginals of the platform's user base.
    model:
        The latent-factor model shared by all attributes.
    n_records:
        Number of simulated records.
    scale:
        Real users per record.
    seed:
        Root seed; demographics, latents, and each attribute draw from
        independent child streams, so realising attributes in a
        different order yields identical memberships.
    """

    def __init__(
        self,
        marginals: DemographicMarginals,
        model: LatentFactorModel,
        n_records: int,
        scale: float = 1.0,
        seed: int = 0,
    ):
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.marginals = marginals
        self.model = model
        self.n_records = int(n_records)
        self.scale = float(scale)
        self.seed = int(seed)

    def _sample_demographics(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        joint = self.marginals.joint_shares()
        cells = list(joint.keys())
        probs = np.asarray([joint[c] for c in cells])
        choice = rng.choice(len(cells), size=self.n_records, p=probs)
        gender_codes = np.asarray([int(cells[i][0]) for i in range(len(cells))])[
            choice
        ].astype(np.uint8)
        age_codes = np.asarray([int(cells[i][1]) for i in range(len(cells))])[
            choice
        ].astype(np.uint8)
        return gender_codes, age_codes

    def generate(self, specs: Sequence[AttributeSpec] = ()) -> Population:
        """Generate a population and realise the given attributes."""
        root = np.random.SeedSequence(self.seed)
        demo_seed, latent_seed = root.spawn(2)
        demo_rng = np.random.default_rng(demo_seed)
        latent_rng = np.random.default_rng(latent_seed)

        gender_codes, age_codes = self._sample_demographics(demo_rng)
        latents = self.model.sample_latents(gender_codes, age_codes, latent_rng)
        index = AudienceIndex(gender_codes, age_codes)
        population = Population(
            gender_codes=gender_codes,
            age_codes=age_codes,
            latents=latents,
            scale=self.scale,
            index=index,
            model=self.model,
            seed=self.seed,
        )
        for spec in specs:
            population.realise_attribute(spec)
        return population
