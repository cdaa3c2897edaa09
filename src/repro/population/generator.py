"""Population sampling: demographics, latent interests, and attributes.

A :class:`Population` is the concrete substrate one simulated platform
runs on: demographic code arrays, the latent interest matrix, and an
:class:`~repro.population.bitsets.AudienceIndex` of realised attribute
memberships.  Each record represents ``scale`` real users so the
platforms report audience sizes in the (hundreds-of-millions) ranges the
paper works with while simulation stays laptop-sized.

Attribute realisation is per-attribute: for each
:class:`~repro.population.model.AttributeSpec` we evaluate the logistic
model over all users (its factor term over the nonzero loadings only,
with no BLAS call), draw Bernoulli memberships from the attribute's own
stream, and pack them into a bit vector.  A
:class:`~repro.population.model.MembershipKernel` holds per-record
demographic cell codes, one row of latents per factor, and two float and
one bool scratch array of ``n_records`` entries, reused by every
attribute it evaluates.  Apart from packing its bit vector, realising an
attribute allocates nothing of record length.  Kernels live for one
realisation call, so a population keeps no scratch between calls.

:meth:`Population.realise_attribute` realises any number of specs in one
call, and :meth:`PopulationGenerator.generate` passes it the whole
catalog.  From :data:`POOL_MIN_RECORDS` records on it splits the specs
over two worker threads, each with a kernel of its own sharing the one
cell-code array and factor rows; smaller populations, or a machine with
one usable CPU, run the same per-spec sampler in a plain loop.  Either
way the calling thread registers the vectors in spec order, and the
memberships are the same.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
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

#: Fewest records at which :meth:`Population.realise_attribute` uses two
#: worker threads.  Below it, dispatch under the GIL costs more than the
#: second CPU saves.
POOL_MIN_RECORDS = 32_768


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


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

    def _sample(
        self, kernel: MembershipKernel, specs: Sequence[AttributeSpec]
    ) -> list[BitVector]:
        """Draw and pack each spec's memberships on ``kernel``.

        Each attribute draws from a stream keyed on ``(seed, attr_id)``,
        so realisation order never affects memberships and attributes
        added later (e.g. free-form searchable options) are reproducible.
        """
        vectors = []
        for spec in specs:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, zlib.crc32(spec.attr_id.encode())])
            )
            vectors.append(BitVector.from_bool(kernel.members(spec, rng)))
        return vectors

    def realise_attribute(self, *specs: AttributeSpec) -> None:
        """Sample and register every spec not yet in the index, in order.

        :meth:`PopulationGenerator.generate` passes its whole catalog in
        one call; a lazily discovered attribute passes one spec.  From
        :data:`POOL_MIN_RECORDS` records on, the specs are dealt
        round-robin to up to two worker threads, each with a kernel of
        its own; the calling thread registers the vectors in spec order.
        The kernels live for this call only.  Memberships are the same
        whatever the thread count.
        """
        pending: dict[str, AttributeSpec] = {}
        for spec in specs:
            if spec.attr_id not in self.index:
                pending.setdefault(spec.attr_id, spec)
        todo = list(pending.values())
        if not todo:
            return
        workers = 1
        if self.n_records >= POOL_MIN_RECORDS:
            workers = min(2, _usable_cpus(), len(todo))
        kernel = MembershipKernel(
            self.model, self.gender_codes, self.age_codes, self.latents
        )
        if workers == 1:
            parts = [self._sample(kernel, todo)]
        else:
            # Imported here: populations below the gate never load it.
            from concurrent.futures import ThreadPoolExecutor

            kernels = [kernel] + [kernel.fork() for _ in range(workers - 1)]
            shares = [todo[i::workers] for i in range(workers)]
            with ThreadPoolExecutor(workers) as pool:
                parts = list(pool.map(self._sample, kernels, shares))
        vectors: list = [None] * len(todo)
        for i, part in enumerate(parts):
            vectors[i::workers] = part
        for spec, vector in zip(todo, vectors):
            self.index.add_attribute(spec.attr_id, vector)


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
        population.realise_attribute(*specs)
        return population
