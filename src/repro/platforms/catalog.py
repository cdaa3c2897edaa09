"""Targeting-option catalogs for the simulated platforms.

The paper studies the *default* attribute lists of each platform: 393
attributes on Facebook's restricted interface, 667 on its normal
interface, 873 attributes plus 2,424 topics on Google, and 552
attributes on LinkedIn.  This module builds those catalogs.

Each catalog mixes two kinds of entries:

* **Curated entries** -- the concrete options named in the paper's
  Tables 2 and 3 (e.g. *Interests - Electrical engineering* with a male
  representation ratio of 3.71 on Facebook's restricted interface).
  Their generative parameters are derived from the ratios printed in
  the paper, so the illustrative-example experiments reproduce
  recognisable rows.
* **Bulk entries** -- programmatically named options whose demographic
  loadings are drawn from the platform's calibrated skew distributions,
  filling the catalog out to the paper's exact counts.

Catalogs also carry the interface metadata the audit must respect:
which feature an option belongs to (Google composes only *across*
features), whether it is part of Facebook's restricted list, and the
searchable free-form attributes that exist only on Facebook's normal
interface (e.g. *Interested in Marie Claire*, male ratio 0.08).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.population.calibration import PlatformCalibration
from repro.population.demographics import AGE_RANGES, AgeRange, Gender
from repro.population.model import AttributeSpec, LatentFactorModel

__all__ = [
    "CatalogEntry",
    "Catalog",
    "UniverseBuild",
    "build_facebook_universe",
    "build_google_universe",
    "build_linkedin_universe",
    "FACEBOOK_NORMAL_COUNT",
    "FACEBOOK_RESTRICTED_COUNT",
    "GOOGLE_ATTRIBUTE_COUNT",
    "GOOGLE_TOPIC_COUNT",
    "LINKEDIN_COUNT",
]

#: Catalog sizes measured by the paper (Section 3, "Obtaining targeting
#: options").
FACEBOOK_NORMAL_COUNT = 667
FACEBOOK_RESTRICTED_COUNT = 393
GOOGLE_ATTRIBUTE_COUNT = 873
GOOGLE_TOPIC_COUNT = 2424
LINKEDIN_COUNT = 552


@dataclass(frozen=True)
class CatalogEntry:
    """One advertiser-visible targeting option."""

    option_id: str
    feature: str
    category: str
    name: str
    demographic_value: Gender | AgeRange | None = None
    free_form: bool = False

    @property
    def display(self) -> str:
        """Category-qualified display name, as shown in the paper."""
        return f"{self.category} — {self.name}"


@dataclass
class Catalog:
    """An ordered collection of catalog entries with lookup helpers."""

    entries: tuple[CatalogEntry, ...]
    _by_id: dict[str, CatalogEntry] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {}
        for entry in self.entries:
            if entry.option_id in self._by_id:
                raise ValueError(f"duplicate option id {entry.option_id!r}")
            self._by_id[entry.option_id] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, option_id: str) -> bool:
        return option_id in self._by_id

    def get(self, option_id: str) -> CatalogEntry:
        """Entry for an option id (KeyError if absent)."""
        return self._by_id[option_id]

    def ids(self) -> list[str]:
        """Option ids in catalog order."""
        return [e.option_id for e in self.entries]

    def names(self) -> dict[str, str]:
        """Mapping of option id to display name."""
        return {e.option_id: e.display for e in self.entries}

    def study_ids(self) -> list[str]:
        """Options in the default study list: browsable, non-demographic."""
        return [
            e.option_id
            for e in self.entries
            if e.demographic_value is None and not e.free_form
        ]

    def search(self, query: str) -> list[CatalogEntry]:
        """Case-insensitive substring search over display names."""
        q = query.lower()
        return [e for e in self.entries if q in e.display.lower()]

    def subset(self, option_ids: Iterable[str]) -> "Catalog":
        """Catalog restricted to the given ids, preserving order."""
        wanted = set(option_ids)
        return Catalog(tuple(e for e in self.entries if e.option_id in wanted))


@dataclass
class UniverseBuild:
    """Everything a platform needs: generative specs plus catalogs."""

    specs: list[AttributeSpec]
    catalog: Catalog
    restricted_ids: list[str] = field(default_factory=list)
    searchable_specs: dict[str, AttributeSpec] = field(default_factory=dict)
    searchable_entries: dict[str, CatalogEntry] = field(default_factory=dict)


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _stable_rng(*parts: object) -> np.random.Generator:
    key = "|".join(str(p) for p in parts)
    return np.random.default_rng(zlib.crc32(key.encode()))


# ---------------------------------------------------------------------------
# Curated entries from the paper's Tables 2 and 3.
#
# Each row: (category, name, male_ratio, {age: ratio}).  ``male_ratio``
# is the representation ratio toward males reported by the paper (None
# when the paper only reports an age skew).  Ratios toward females in
# the paper are encoded as 1/ratio here.
# ---------------------------------------------------------------------------

_FB_RESTRICTED_CURATED: list[tuple[str, str, float | None, dict[AgeRange, float]]] = [
    ("Interests", "Mechanical engineering", 4.68, {}),
    ("Interests", "Automobile repair shop", 4.40, {}),
    ("Interests", "Buy to let", 2.62, {}),
    ("Interests", "Sedan (automobile)", 2.50, {}),
    ("Interests", "Hatchback", 3.25, {}),
    ("Interests", "Computer engineering", 3.05, {}),
    ("Interests", "Electrical engineering", 3.71, {AgeRange.AGE_18_24: 1.63}),
    ("Interests", "Cars", 2.18, {AgeRange.AGE_18_24: 1.96}),
    ("Interests", "Interior design magazine", 1 / 2.38, {}),
    ("Interests", "Credit Sesame", 1 / 2.16, {}),
    ("Interests", "Epidemiology", 1 / 2.53, {AgeRange.AGE_55_PLUS: 2.08}),
    ("Interests", "Veterinary medicine", 1 / 2.71, {}),
    ("Interests", "Bungalow", 1 / 2.42, {}),
    ("Interests", "Multi-level marketing", 1 / 5.00, {}),
    ("Interests", "Living room", 1 / 3.03, {}),
    ("Interests", "Product design", 1 / 2.48, {}),
    ("Interests", "Grocery store", 1 / 2.39, {}),
    ("Interests", "Vocational education", None, {AgeRange.AGE_18_24: 1.89}),
    ("Interests", "Roommate", None, {AgeRange.AGE_18_24: 1.53}),
    ("Interests", "Moving company", None, {AgeRange.AGE_18_24: 1.27}),
    ("Interests", "Microcredit", None, {AgeRange.AGE_18_24: 1.32}),
    ("Interests", "Mortgage calculator", None, {AgeRange.AGE_18_24: 1.27}),
    ("Interests", "Entry-level job", None, {AgeRange.AGE_18_24: 1.84}),
    ("Interests", "Apartment Guide", None, {AgeRange.AGE_18_24: 1.78}),
    ("Interests", "Income tax", None, {AgeRange.AGE_55_PLUS: 2.46}),
    ("Interests", "Consumer Reports", None, {AgeRange.AGE_55_PLUS: 2.38}),
    ("Interests", "Reverse mortgage", None, {AgeRange.AGE_55_PLUS: 7.95}),
    ("Interests", "Life insurance", None, {AgeRange.AGE_55_PLUS: 3.73}),
    ("Interests", "Part-time", None, {AgeRange.AGE_55_PLUS: 2.80}),
    ("Interests", "Home equity line of credit", None, {AgeRange.AGE_55_PLUS: 2.60}),
    ("Interests", "Government debt", None, {AgeRange.AGE_55_PLUS: 2.06}),
    ("Interests", "Data security", None, {AgeRange.AGE_55_PLUS: 2.91}),
    ("Interests", "Fundraising", None, {AgeRange.AGE_55_PLUS: 2.46}),
]

_FB_NORMAL_EXTRA_CURATED: list[
    tuple[str, str, float | None, dict[AgeRange, float]]
] = [
    ("Games", "Strategy games", 4.58, {}),
    ("Industries", "Military (Global)", 4.00, {AgeRange.AGE_18_24: 1.69}),
    ("Industries", "Construction and Extraction", 5.09, {}),
    ("Games", "Racing games", 5.00, {}),
    (
        "Games",
        "Massively multiplayer online games",
        2.45,
        {AgeRange.AGE_18_24: 2.43},
    ),
    ("Soccer", "Soccer fans (high content engagement)", 2.23, {}),
    ("Consumer electronics", "Audio equipment", 4.24, {}),
    ("Beauty", "Cosmetics", 1 / 2.59, {}),
    ("Amazon", "Owns: Kindle Fire", 1 / 2.51, {}),
    ("Facebook page admins", "Health & Beauty page admins", 1 / 3.38, {}),
    ("Family and relationships", "Parenting", 1 / 3.25, {}),
    ("Beauty", "Hair products", 1 / 2.75, {}),
    (
        "Facebook Payments",
        "Facebook Payments users (higher than average spend)",
        1 / 2.29,
        {},
    ),
    ("Shopping", "Boutiques", 1 / 2.92, {}),
    ("Industries", "Education and Libraries", 1 / 2.43, {}),
    ("Clothing", "Children's clothing", 1 / 5.96, {}),
    ("Industries", "Community and Social Services", 1 / 2.62, {}),
    ("Education Level", "Some high school", None, {AgeRange.AGE_18_24: 3.29}),
    ("Education Level", "In college", None, {AgeRange.AGE_18_24: 5.75}),
    ("Reading", "Manga", None, {AgeRange.AGE_18_24: 2.39}),
    ("Sports", "Volleyball", None, {AgeRange.AGE_18_24: 2.59}),
    (
        "Expats",
        "Lived in China (Formerly Expats - China)",
        None,
        {AgeRange.AGE_18_24: 1.97},
    ),
    ("Relationship Status", "Widowed", None, {AgeRange.AGE_55_PLUS: 8.13}),
    (
        "Canvas Gaming",
        "Played Canvas games (last 7 days)",
        None,
        {AgeRange.AGE_55_PLUS: 7.47},
    ),
    (
        "Facebook access (browser)",
        "Internet Explorer",
        None,
        {AgeRange.AGE_55_PLUS: 4.12},
    ),
    ("Facebook access (OS)", "Windows 8", None, {AgeRange.AGE_55_PLUS: 2.63}),
    (
        "Politics (US)",
        "Likely engagement with conservative political content",
        None,
        {AgeRange.AGE_55_PLUS: 2.50},
    ),
    ("Apple", "Facebook access (mobile): iPhone 5", None, {AgeRange.AGE_55_PLUS: 3.28}),
    ("All Parents", "Parents (All)", None, {AgeRange.AGE_55_PLUS: 2.44}),
    ("Apple", "Owns: iPhone 6 Plus", None, {AgeRange.AGE_55_PLUS: 2.96}),
    (
        "Primary email domain",
        "AOL email users",
        None,
        {AgeRange.AGE_55_PLUS: 2.49},
    ),
]

_GOOGLE_AUDIENCE_CURATED: list[
    tuple[str, str, float | None, dict[AgeRange, float]]
] = [
    ("Gamers", "Sports Game Fans", 4.00, {}),
    ("Gamers", "Shooter Game Fans", 4.06, {}),
    ("Vehicles", "Performance & Luxury Vehicle Enthusiasts", 4.15, {}),
    ("Makeup & Cosmetics", "Eye Makeup", 1 / 6.16, {}),
    (
        "Holiday Items & Decorations",
        "Christmas Items & Decor",
        1 / 4.84,
        {},
    ),
    ("Infant & Toddler Feeding", "Toddler Meals", 1 / 4.90, {}),
    (
        "Skin Care Products",
        "Anti-Aging Skin Care Products",
        1 / 4.88,
        {AgeRange.AGE_55_PLUS: 2.2},
    ),
    (
        "Education",
        "Highest education high school graduate",
        None,
        {AgeRange.AGE_18_24: 1.56},
    ),
    ("Employment", "Internships", None, {AgeRange.AGE_18_24: 1.62}),
    ("Employment", "Sales & Marketing Jobs", None, {AgeRange.AGE_18_24: 1.53}),
    ("Employment", "Temporary & Seasonal Jobs", None, {AgeRange.AGE_18_24: 1.52}),
    ("Marital Status", "In a Relationship", None, {AgeRange.AGE_18_24: 1.64}),
    ("Homeownership Status", "Homeowners", None, {AgeRange.AGE_55_PLUS: 4.30}),
    ("Marital Status", "Married", None, {AgeRange.AGE_55_PLUS: 5.00}),
    ("Retirement", "Retiring Soon", None, {AgeRange.AGE_55_PLUS: 11.60}),
    ("Motor Vehicles by Brand", "Lincoln", None, {AgeRange.AGE_55_PLUS: 3.83}),
]

_GOOGLE_TOPIC_CURATED: list[tuple[str, str, float | None, dict[AgeRange, float]]] = [
    ("Martial Arts", "Kickboxing", 4.21, {}),
    ("Autos & Vehicles", "Custom & Performance Vehicles", 5.42, {}),
    ("Martial Arts", "Japanese Martial Arts", 5.61, {}),
    ("Computer Components", "Chips & Processors", 5.18, {}),
    ("Computer Hardware", "Hardware Modding & Tuning", 4.62, {}),
    ("Mediterranean Cuisine", "Greek Cuisine", 1 / 5.27, {}),
    ("Food", "Grains & Pasta", 1 / 4.55, {}),
    ("Crafts", "Art & Craft Supplies", 1 / 6.19, {}),
    ("Latin American Cuisine", "South American Cuisine", 1 / 4.49, {}),
    ("Crafts", "Fiber & Textile Arts", 1 / 5.79, {}),
    (
        "Business Services",
        "Knowledge Management",
        None,
        {AgeRange.AGE_18_24: 1.43},
    ),
    ("Online Communities", "Virtual Worlds", None, {AgeRange.AGE_18_24: 1.67}),
    ("Books & Literature", "Fan Fiction", None, {AgeRange.AGE_18_24: 1.53}),
    ("Table Games", "Table Tennis", None, {AgeRange.AGE_18_24: 2.81}),
    ("Software", "Educational Software", None, {AgeRange.AGE_18_24: 1.76}),
    ("Central Anatolia", "Ankara", None, {AgeRange.AGE_55_PLUS: 6.01}),
    ("Austria", "Vienna", None, {AgeRange.AGE_55_PLUS: 4.93}),
    ("Education", "Alumni & Reunions", None, {AgeRange.AGE_55_PLUS: 6.29}),
    ("Movies", "Classic Films", None, {AgeRange.AGE_55_PLUS: 4.45}),
    ("Games", "Tile Games", None, {AgeRange.AGE_55_PLUS: 4.70}),
]

_LINKEDIN_CURATED: list[tuple[str, str, float | None, dict[AgeRange, float]]] = [
    ("Manufacturing", "Industrial Automation", 2.80, {}),
    ("Robotics", "Swarm Robotics", 2.26, {}),
    ("Job Functions", "Engineering", 3.74, {}),
    ("Transportation & Logistics", "Maritime", 3.11, {}),
    ("Desktop/Laptop Preference", "Linux", 5.72, {}),
    ("Computer Software", "Operating Systems", 4.19, {}),
    ("Energy & Mining", "Mining & Metals", 2.94, {}),
    ("Job Seniorities", "CXO", 2.55, {AgeRange.AGE_55_PLUS: 3.71}),
    ("Computer Hardware", "CPUs", 2.61, {}),
    ("Health Care", "Medical Practice", 1 / 2.41, {}),
    ("Job Functions", "Accounting", 1 / 2.17, {}),
    ("Corporate Services", "Executive Office", 1 / 1.90, {}),
    ("Working Environments", "Home-Based Business", 1 / 1.87, {}),
    ("Consumer Goods", "Cosmetics", 1 / 4.48, {}),
    ("Human Resources", "Workplace Conflict Resolution", 1 / 3.21, {}),
    ("Job Functions", "Administrative", 1 / 3.70, {}),
    ("Human Resources", "Workplace Etiquette", 1 / 2.73, {}),
    (
        "News Editors",
        "Top Startups (United States)",
        None,
        {AgeRange.AGE_18_24: 1.25},
    ),
    ("Job Functions", "Operations", None, {AgeRange.AGE_18_24: 1.14}),
    ("Consumer Goods", "Food & Beverages", None, {AgeRange.AGE_18_24: 1.36}),
    ("Education", "Higher Education", None, {AgeRange.AGE_18_24: 1.16}),
    (
        "Recreation & Travel",
        "Recreational Facilities & Services",
        None,
        {AgeRange.AGE_18_24: 1.19},
    ),
    ("Member Traits", "Job Seeker", None, {AgeRange.AGE_18_24: 1.13}),
    (
        "Public Administration",
        "Political Organization",
        None,
        {AgeRange.AGE_18_24: 1.21},
    ),
    ("Mobile Preference", "iPhone Users", None, {AgeRange.AGE_18_24: 1.00}),
    ("Desktop/Laptop Preference", "Mac", None, {AgeRange.AGE_18_24: 1.23}),
    ("Insurance", "Life Insurance", None, {AgeRange.AGE_55_PLUS: 3.13}),
    ("Job Functions", "Consulting", None, {AgeRange.AGE_55_PLUS: 3.01}),
    (
        "Business Administration",
        "Operations Management",
        None,
        {AgeRange.AGE_55_PLUS: 2.90},
    ),
    (
        "Corporate Finance",
        "Corporate Financial Planning",
        None,
        {AgeRange.AGE_55_PLUS: 3.42},
    ),
    (
        "Sciences",
        "Agronomy and Agricultural Sciences",
        None,
        {AgeRange.AGE_55_PLUS: 3.02},
    ),
    ("International Trade", "Economic Sanctions", None, {AgeRange.AGE_55_PLUS: 3.06}),
]

#: Free-form attributes searchable (but not browsable) on Facebook's
#: normal interface.  The paper cites *Interested in Marie Claire* with
#: a male representation ratio of 0.08 as an example of the extreme
#: skews that exist outside the default list.
_FB_FREEFORM_CURATED: list[tuple[str, str, float, dict[AgeRange, float]]] = [
    ("Interests", "Marie Claire", 0.08, {}),
    ("Interests", "Cosmopolitan (magazine)", 0.10, {}),
    ("Interests", "Field & Stream", 9.5, {}),
    ("Interests", "Maxim (magazine)", 8.0, {}),
    ("Interests", "Mother's Day", 0.2, {}),
    ("Interests", "AARP The Magazine", 4.0, {AgeRange.AGE_55_PLUS: 9.0}),
]


# ---------------------------------------------------------------------------
# Bulk name generation.
# ---------------------------------------------------------------------------

_THEMES: dict[str, list[str]] = {
    "Autos & Vehicles": [
        "Motorcycles", "Pickup Trucks", "Electric Vehicles", "Car Audio",
        "Off-Road Vehicles", "Classic Cars", "Auto Insurance", "Car Rentals",
        "Trucks & SUVs", "Vehicle Repair", "Motorsports", "Boats & Watercraft",
    ],
    "Beauty & Fitness": [
        "Hair Care", "Spas & Wellness", "Yoga", "Weight Training", "Perfume",
        "Nail Art", "Skin Care", "Fitness Trackers", "Pilates", "Barbershops",
    ],
    "Books & Literature": [
        "Poetry", "Biographies", "Mystery Novels", "Science Fiction",
        "Audiobooks", "Book Clubs", "Comics", "Literary Classics",
    ],
    "Business & Industrial": [
        "Logistics", "Commercial Real Estate", "Manufacturing", "Agriculture",
        "Small Business", "Venture Capital", "Printing Services", "Shipping",
        "Industrial Supplies", "Enterprise Software",
    ],
    "Computers & Electronics": [
        "Laptops", "Smart Home", "Networking Equipment", "3D Printing",
        "Graphics Cards", "Mechanical Keyboards", "Drones", "Home Audio",
        "Cybersecurity", "Open Source",
    ],
    "Finance": [
        "Retirement Planning", "Stock Trading", "Credit Cards", "Mortgages",
        "Cryptocurrency", "Budgeting Apps", "Tax Preparation", "Student Loans",
        "Insurance Comparison", "Mutual Funds",
    ],
    "Food & Drink": [
        "Barbecue", "Vegan Cooking", "Craft Beer", "Coffee Roasting",
        "Baking", "Wine Tasting", "Street Food", "Meal Kits", "Smoothies",
        "Farmers Markets",
    ],
    "Games": [
        "Puzzle Games", "Card Games", "Board Games", "Arcade Games",
        "Role-Playing Games", "Simulation Games", "Word Games", "Esports",
        "Casino Games", "Trivia Games",
    ],
    "Health": [
        "Nutrition", "Physical Therapy", "Sleep Disorders", "Meditation",
        "First Aid", "Dental Care", "Vision Care", "Allergies", "Vaccines",
    ],
    "Hobbies & Leisure": [
        "Birdwatching", "Model Trains", "Photography", "Knitting",
        "Woodworking", "Gardening", "Genealogy", "Astronomy", "Fishing",
        "Scrapbooking", "Camping", "Metal Detecting",
    ],
    "Home & Garden": [
        "Landscaping", "Home Improvement", "Kitchen Remodeling",
        "Smart Appliances", "Furniture", "Pest Control", "House Plants",
        "Patio & Deck", "Home Security",
    ],
    "Jobs & Education": [
        "Online Courses", "MBA Programs", "Resume Writing", "Trade Schools",
        "Certification Exams", "Study Abroad", "Career Coaching",
        "Scholarships", "Apprenticeships",
    ],
    "Law & Government": [
        "Immigration Law", "Small Claims", "Civic Engagement",
        "Military Benefits", "Public Records", "City Planning",
    ],
    "Movies & TV": [
        "Documentaries", "Animated Films", "Reality TV", "Film Festivals",
        "Streaming Services", "Horror Films", "Sitcoms", "Foreign Films",
    ],
    "Music & Audio": [
        "Jazz", "Country Music", "Hip-Hop", "Classical Music", "Podcasts",
        "Vinyl Records", "Music Production", "Karaoke", "Songwriting",
    ],
    "News & Politics": [
        "Local News", "World News", "Political Commentary", "Weather",
        "Business News", "Fact Checking",
    ],
    "Pets & Animals": [
        "Dog Training", "Cat Care", "Aquariums", "Horse Riding",
        "Pet Adoption", "Exotic Pets", "Pet Insurance",
    ],
    "Real Estate": [
        "Apartments", "Home Staging", "Property Management",
        "First-Time Buyers", "Vacation Homes", "Foreclosures",
    ],
    "Shopping": [
        "Coupons & Discounts", "Luxury Goods", "Thrift Stores",
        "Flash Sales", "Gift Baskets", "Online Marketplaces",
        "Subscription Boxes",
    ],
    "Sports": [
        "Basketball", "Tennis", "Golf", "Running", "Cycling", "Swimming",
        "Rock Climbing", "Snowboarding", "Fantasy Sports", "Surfing",
        "Bowling", "Ice Hockey",
    ],
    "Travel": [
        "Budget Travel", "Cruises", "National Parks", "Air Travel",
        "Road Trips", "Travel Insurance", "Backpacking", "Theme Parks",
        "Ecotourism",
    ],
    "Family & Relationships": [
        "Wedding Planning", "Newborn Care", "Family Reunions",
        "Eldercare", "Adoption", "Co-Parenting", "Date Nights",
    ],
    "Science": [
        "Space Exploration", "Marine Biology", "Chemistry Sets",
        "Citizen Science", "Paleontology", "Robotics Kits",
    ],
    "Style & Fashion": [
        "Sneakers", "Vintage Fashion", "Menswear", "Handbags",
        "Jewelry Making", "Streetwear", "Sustainable Fashion",
    ],
}

_MODIFIERS = [
    "", "DIY ", "Professional ", "Beginner ", "Advanced ", "Local ",
    "Vintage ", "Luxury ", "Budget ", "Outdoor ", "Indoor ", "Seasonal ",
    "Custom ", "Portable ", "Organic ",
]


def _bulk_names(platform: str, feature: str, count: int) -> list[tuple[str, str]]:
    """Deterministically generate ``count`` unique (category, name) pairs."""
    rng = _stable_rng("names", platform, feature)
    themes = list(_THEMES.items())
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    modifier_level = 0
    while len(pairs) < count:
        order = rng.permutation(len(themes))
        for idx in order:
            category, nouns = themes[idx]
            noun = nouns[int(rng.integers(len(nouns)))]
            modifier = _MODIFIERS[modifier_level % len(_MODIFIERS)]
            name = f"{modifier}{noun}"
            key = (category, name)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(key)
            if len(pairs) >= count:
                break
        modifier_level += 1
        if modifier_level > 10_000:  # pragma: no cover - safety valve
            raise RuntimeError("name generation failed to converge")
    return pairs


# ---------------------------------------------------------------------------
# Spec construction.
# ---------------------------------------------------------------------------


def _gender_factors(model: LatentFactorModel) -> tuple[int, int]:
    """Indices of the most male- and most female-tilted factors."""
    shifts = np.asarray(model.factor_gender_shift)
    return int(np.argmax(shifts)), int(np.argmin(shifts))


def _age_profile_from_hints(hints: Mapping[AgeRange, float]) -> np.ndarray:
    """Translate ``{age: ratio}`` hints into a 4-bucket log-odds profile.

    A target ratio ``r`` at bucket ``a`` means the log-odds at ``a``
    should exceed the mean of the other buckets by ``ln r``; we realise
    that with a +3/4, -1/4 split so the profile stays zero-mean.
    """
    profile = np.zeros(len(AGE_RANGES))
    for age, ratio in hints.items():
        gap = float(np.log(ratio))
        for other in AGE_RANGES:
            if other is age:
                profile[int(other)] += 0.75 * gap
            else:
                profile[int(other)] -= 0.25 * gap
    return profile


def _build_spec(
    attr_id: str,
    feature: str,
    category: str,
    name: str,
    total_gender_gap: float,
    total_age_profile: np.ndarray,
    base_logit: float,
    loadings: Mapping[int, float],
    model: LatentFactorModel,
) -> AttributeSpec:
    """Create a spec whose *total* demographic gaps match the targets.

    The latent factors contribute ``lambda . factor_shift`` to the
    effective gender/age gaps; we subtract that contribution from the
    direct loadings so the calibrated marginal skew distribution is
    preserved regardless of factor assignment.
    """
    gender_shift = np.asarray(model.factor_gender_shift)
    age_shift = np.asarray(model.factor_age_shift)  # (K, 4)
    lam = np.zeros(model.n_factors)
    for k, w in loadings.items():
        lam[k] = w
    beta_gender = total_gender_gap - float(lam @ gender_shift)
    beta_age = np.asarray(total_age_profile, dtype=float) - age_shift.T @ lam
    beta_age = beta_age - beta_age.mean()
    return AttributeSpec(
        attr_id=attr_id,
        feature=feature,
        category=category,
        name=name,
        base_logit=float(base_logit),
        beta_gender=float(beta_gender),
        beta_age=tuple(float(b) for b in beta_age),
        loadings=dict(loadings),
    )


def _curated_loadings(
    gender_gap: float, model: LatentFactorModel, attr_id: str
) -> dict[int, float]:
    """Factor assignment for a curated entry.

    Curated options load on the gender-aligned factor matching their
    skew direction, so same-direction curated pairs share a factor and
    overlap realistically; a second, hash-chosen factor adds diversity.
    """
    male_k, female_k = _gender_factors(model)
    rng = _stable_rng("curated-loadings", attr_id)
    loadings: dict[int, float] = {}
    if gender_gap > 0.05:
        loadings[male_k] = 0.95
    elif gender_gap < -0.05:
        loadings[female_k] = 0.95
    extra = int(rng.integers(model.n_factors))
    if extra not in loadings:
        loadings[extra] = float(rng.normal(0.0, 0.3))
    return loadings


def _bulk_loadings(
    cal: PlatformCalibration,
    model: LatentFactorModel,
    rng: np.random.Generator,
    gender_gap: float,
) -> dict[int, float]:
    """Factor assignment for a bulk option.

    Options with a clear gender skew usually load (positively) on the
    gender-aligned factor matching their direction: stereotypically
    skewed interests cluster (motorsports fans also follow car audio),
    which is what gives the top skewed compositions the substantial
    pairwise audience overlaps the paper measures (Table 1).  The
    direct loadings are later adjusted so this never changes the
    option's *marginal* skew.
    """
    loadings: dict[int, float] = {}
    if rng.random() >= cal.factor_loading_prob:
        return loadings
    male_k, female_k = _gender_factors(model)
    if abs(gender_gap) > 0.2 and rng.random() < 0.6:
        aligned = male_k if gender_gap > 0 else female_k
        loadings[aligned] = abs(
            float(rng.normal(cal.factor_loading_scale, 0.2 * cal.factor_loading_scale))
        )
    else:
        k = int(rng.integers(model.n_factors))
        loadings[k] = float(rng.normal(0.0, cal.factor_loading_scale))
    if rng.random() < 0.3:
        extra = int(rng.integers(model.n_factors))
        if extra not in loadings:
            loadings[extra] = float(
                rng.normal(0.0, 0.5 * cal.factor_loading_scale)
            )
    return loadings


def _curated_specs(
    platform: str,
    feature: str,
    rows: Sequence[tuple[str, str, float | None, dict[AgeRange, float]]],
    cal: PlatformCalibration,
    model: LatentFactorModel,
) -> tuple[list[AttributeSpec], list[CatalogEntry]]:
    specs: list[AttributeSpec] = []
    entries: list[CatalogEntry] = []
    for category, name, male_ratio, age_hints in rows:
        attr_id = f"{platform}:{feature}:{_slug(category)}--{_slug(name)}"
        rng = _stable_rng("curated", attr_id)
        gender_gap = float(np.log(male_ratio)) if male_ratio else float(
            rng.normal(0.0, 0.15)
        )
        age_profile = _age_profile_from_hints(age_hints)
        age_profile += np.asarray(cal.age_tilt) * 0.5
        loadings = _curated_loadings(gender_gap, model, attr_id)
        base_logit = cal.base_logit_mu + 0.6 + float(rng.normal(0, 0.4))
        specs.append(
            _build_spec(
                attr_id, feature, category, name, gender_gap, age_profile,
                base_logit, loadings, model,
            )
        )
        entries.append(CatalogEntry(attr_id, feature, category, name))
    return specs, entries


def _bulk_specs(
    platform: str,
    feature: str,
    count: int,
    cal: PlatformCalibration,
    model: LatentFactorModel,
    taken_names: set[tuple[str, str]],
) -> tuple[list[AttributeSpec], list[CatalogEntry]]:
    rng = _stable_rng("bulk", platform, feature)
    names = [
        pair
        for pair in _bulk_names(platform, feature, count + len(taken_names))
        if pair not in taken_names
    ][:count]
    if len(names) < count:  # pragma: no cover - generation always over-produces
        raise RuntimeError("not enough unique bulk names generated")
    specs: list[AttributeSpec] = []
    entries: list[CatalogEntry] = []
    gender_gaps = cal.gender_skew.sample(rng, count)
    age_anchors = cal.age_skew.sample(rng, count)
    for (category, name), gender_gap, anchor in zip(names, gender_gaps, age_anchors):
        attr_id = f"{platform}:{feature}:{_slug(category)}--{_slug(name)}"
        profile = np.linspace(-anchor, anchor, len(AGE_RANGES))
        profile += rng.normal(0.0, 0.12, len(AGE_RANGES))
        profile += np.asarray(cal.age_tilt)
        profile -= profile.mean()
        loadings = _bulk_loadings(cal, model, rng, float(gender_gap))
        base_logit = cal.base_logit_mu + float(
            rng.normal(0.0, cal.base_logit_sigma)
        )
        specs.append(
            _build_spec(
                attr_id, feature, category, name, float(gender_gap), profile,
                base_logit, loadings, model,
            )
        )
        entries.append(CatalogEntry(attr_id, feature, category, name))
    return specs, entries


# ---------------------------------------------------------------------------
# Platform universes.
# ---------------------------------------------------------------------------


def build_facebook_universe(
    cal: PlatformCalibration, model: LatentFactorModel
) -> UniverseBuild:
    """Facebook: 667 default attributes, 393 of them restricted-eligible.

    The restricted list is the subset of the default list surviving the
    special-ad-category sanitisation: options in explicitly demographic
    categories and options with the most extreme skews are dropped, but
    moderately skewed interests (e.g. *Electrical engineering*) remain.
    """
    feature = "interests"
    curated_rows = _FB_RESTRICTED_CURATED + _FB_NORMAL_EXTRA_CURATED
    specs, entries = _curated_specs("fb", feature, curated_rows, cal, model)
    restricted_count = len(_FB_RESTRICTED_CURATED)
    taken = {(e.category, e.name) for e in entries}
    bulk_specs, bulk_entries = _bulk_specs(
        "fb", feature, FACEBOOK_NORMAL_COUNT - len(entries), cal, model, taken
    )
    specs += bulk_specs
    entries += bulk_entries

    # Restricted eligibility for bulk entries: inside the sanitisation
    # clips and not in an explicitly demographic category.
    sensitive_categories = {
        "Education Level", "Relationship Status", "Politics (US)",
        "All Parents", "Expats", "Family & Relationships",
    }
    gclip = cal.restricted_gender_clip or 1.45
    restricted_ids = [s.attr_id for s in specs[:restricted_count]]
    for spec, entry in zip(specs[restricted_count:], entries[restricted_count:]):
        if len(restricted_ids) >= FACEBOOK_RESTRICTED_COUNT:
            break
        if entry.category in sensitive_categories:
            continue
        # The restricted list is sanitised on *explicit* criteria, not on
        # measured skew (curated examples show gender ratios up to ~4.7
        # surviving), so only the coarse gender clip applies to bulk
        # options; moderately age-skewed options pass untouched.
        total_gender = model.approximate_gender_ratio(spec)
        if not (1.0 / np.exp(gclip) <= total_gender <= np.exp(gclip)):
            continue
        restricted_ids.append(spec.attr_id)

    searchable_specs: dict[str, AttributeSpec] = {}
    searchable_entries: dict[str, CatalogEntry] = {}
    for category, name, ratio, age_hints in _FB_FREEFORM_CURATED:
        attr_id = f"fb:freeform:{_slug(name)}"
        profile = _age_profile_from_hints(age_hints)
        spec = _build_spec(
            attr_id, "freeform", category, name, float(np.log(ratio)),
            profile, cal.base_logit_mu - 0.5,
            _curated_loadings(float(np.log(ratio)), model, attr_id), model,
        )
        searchable_specs[attr_id] = spec
        searchable_entries[attr_id] = CatalogEntry(
            attr_id, "freeform", category, name, free_form=True
        )

    return UniverseBuild(
        specs=specs,
        catalog=Catalog(tuple(entries)),
        restricted_ids=restricted_ids[:FACEBOOK_RESTRICTED_COUNT],
        searchable_specs=searchable_specs,
        searchable_entries=searchable_entries,
    )


def build_google_universe(
    cal: PlatformCalibration, model: LatentFactorModel
) -> UniverseBuild:
    """Google: 873 audience attributes plus 2,424 placement topics."""
    specs: list[AttributeSpec] = []
    entries: list[CatalogEntry] = []
    for feature, curated, count in (
        ("audiences", _GOOGLE_AUDIENCE_CURATED, GOOGLE_ATTRIBUTE_COUNT),
        ("topics", _GOOGLE_TOPIC_CURATED, GOOGLE_TOPIC_COUNT),
    ):
        c_specs, c_entries = _curated_specs("g", feature, curated, cal, model)
        taken = {(e.category, e.name) for e in c_entries}
        b_specs, b_entries = _bulk_specs(
            "g", feature, count - len(c_entries), cal, model, taken
        )
        specs += c_specs + b_specs
        entries += c_entries + b_entries
    return UniverseBuild(specs=specs, catalog=Catalog(tuple(entries)))


def build_linkedin_universe(
    cal: PlatformCalibration, model: LatentFactorModel
) -> UniverseBuild:
    """LinkedIn: 552 detailed attributes plus demographic detail options.

    LinkedIn has no separate gender/age targeting fields; genders and
    age ranges appear *as detailed targeting attributes* that can be
    AND-ed into a rule (paper, footnote 4).  Those demographic options
    are part of the catalog but excluded from the study list.
    """
    feature = "attributes"
    specs, entries = _curated_specs("li", feature, _LINKEDIN_CURATED, cal, model)
    taken = {(e.category, e.name) for e in entries}
    bulk_specs, bulk_entries = _bulk_specs(
        "li", feature, LINKEDIN_COUNT - len(entries), cal, model, taken
    )
    specs += bulk_specs
    entries += bulk_entries

    demo_entries: list[CatalogEntry] = []
    for gender in (Gender.MALE, Gender.FEMALE):
        demo_entries.append(
            CatalogEntry(
                option_id=f"li:demographics:gender-{gender.label}",
                feature="demographics",
                category="Gender",
                name=gender.label.capitalize(),
                demographic_value=gender,
            )
        )
    for age in AGE_RANGES:
        demo_entries.append(
            CatalogEntry(
                option_id=f"li:demographics:age-{_slug(age.label)}",
                feature="demographics",
                category="Age",
                name=age.label,
                demographic_value=age,
            )
        )
    return UniverseBuild(
        specs=specs, catalog=Catalog(tuple(entries + demo_entries))
    )
