"""Seeded synthetic corpus for the benchmark.

One generator feeds every workload. From a seed it builds a dataset of
product records, the tables a ``reviewlens.testing.CannedReviewModel``
answers from, and the fault plan of the ``synthetic-faults`` workload. It
also computes, from those tables alone, how many provider attempts each
product costs on each workload, so the benchmark can check the provider's
own count against it without trusting any counter inside the program.

The corpus shape is fixed and only its content depends on the seed: the
multiset of review counts, where the opinion-only reviews sit, how many
attributes each review has, the spread of description lengths, and the
number of faulted requests and of permanent failures are the same for every
seed. That keeps the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Review counts per product. Most products have 4-12 reviews; two have 30 or
# more, so one product's fan-out dominates a pass. Seller descriptions are
# spread evenly over DESCRIPTION_CHARS.
REVIEW_COUNTS = (4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 6, 8, 10, 12, 30, 34)
OPINION_ONLY_SHARE = 0.2
MAX_ATTRIBUTES = 4
DESCRIPTION_CHARS = (150, 1500)

# Repair cases the canned model injects.
OMITTED_ROW_SHARE = 0.04
INVENTED_ROW_SHARE = 0.03
UNMAPPED_KEYS_PER_CATEGORY = 1

# Fault plan of the synthetic-faults workload.
TRANSIENT_SHARE = 0.10
PERMANENT_EXTRACTION_FAILURES = 2
PERMANENT_COMPARISON_FAILURES = 2
FAULT_KINDS = ("http_500", "http_429", "drop", "malformed")
PERMANENT_ATTEMPTS = 3  # the default RetryPolicy's max_attempts

WORKLOADS = ("synthetic-live", "synthetic-faults")
MODES = ("full", "ablated", "baseline")

# Product category -> attribute pool of (display name, grouping label, unit).
# Keys are shared by every product of a category.
KEY_POOLS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "Appliances": (
        ("Motor Power", "Performance", "watts"),
        ("Bowl Capacity", "Physical Attributes", "quarts"),
        ("Weight", "Physical Attributes", "pounds"),
        ("Cord Length", "Physical Attributes", "feet"),
        ("Noise Level", "Performance", "dB"),
        ("Speed Settings", "Performance", "settings"),
        ("Warranty", "Support", "years"),
        ("Height", "Physical Attributes", "inches"),
        ("Wattage Draw", "Performance", "watts"),
        ("Timer Range", "Controls", "minutes"),
        ("Bowl Material", "Materials", "gauge"),
        ("Attachment Count", "Accessories", "pieces"),
        ("Heat Up Time", "Performance", "seconds"),
        ("Color", "Appearance", "shade code"),
    ),
    "Beauty": (
        ("Volume", "Packaging", "ml"),
        ("Vitamin C Concentration", "Ingredients", "percent"),
        ("Scent", "Sensory", "intensity"),
        ("Texture", "Texture and Feel", "viscosity"),
        ("Supply Duration", "Usage", "days"),
        ("Dropper Capacity", "Packaging", "ml"),
        ("SPF", "Protection", "rating"),
        ("pH Level", "Ingredients", "pH"),
        ("Absorption Time", "Texture and Feel", "seconds"),
        ("Shelf Life", "Usage", "months"),
        ("Bottle Weight", "Packaging", "grams"),
        ("Niacinamide", "Ingredients", "percent"),
        ("Tint", "Appearance", "shade code"),
        ("Application Count", "Usage", "uses"),
    ),
    "Electronics": (
        ("Battery Life", "Performance", "hours"),
        ("Case Battery", "Performance", "hours"),
        ("Bluetooth Version", "Connectivity", "revision"),
        ("Water Resistance", "Durability", "IP level"),
        ("Weight Per Bud", "Physical Attributes", "grams"),
        ("Latency", "Performance", "ms"),
        ("Microphones", "Audio Hardware", "mics"),
        ("Charging Time", "Power", "minutes"),
        ("Driver Size", "Audio Hardware", "mm"),
        ("Range", "Connectivity", "meters"),
        ("Frequency Response", "Audio Hardware", "Hz"),
        ("Charging Port", "Power", "pins"),
        ("Noise Cancellation", "Audio Hardware", "dB"),
        ("Color", "Appearance", "shade code"),
    ),
    "Outdoor": (
        ("Tent Capacity", "Physical Attributes", "persons"),
        ("Packed Weight", "Physical Attributes", "kg"),
        ("Floor Area", "Physical Attributes", "sq ft"),
        ("Pole Material", "Materials", "grade"),
        ("Waterproof Rating", "Durability", "mm"),
        ("Setup Time", "Usage", "minutes"),
        ("Peak Height", "Physical Attributes", "inches"),
        ("Door Count", "Design", "doors"),
        ("Vestibule Area", "Design", "sq ft"),
        ("Stake Count", "Accessories", "stakes"),
        ("Season Rating", "Durability", "seasons"),
        ("Fabric Denier", "Materials", "denier"),
        ("Window Count", "Design", "windows"),
        ("Color", "Appearance", "shade code"),
    ),
}

BRANDS = ("Northwind", "Lumen", "Pulse", "Vega", "Orchid", "Summit", "Cobalt", "Meridian")
NOUNS = {
    "Appliances": "Stand Mixer",
    "Beauty": "Face Serum",
    "Electronics": "Wireless Earbuds",
    "Outdoor": "Trail Tent",
}
FILLER = (
    "Shipping was quick and the box arrived intact.",
    "Absolutely love it, would buy again.",
    "My partner was skeptical at first but now uses it daily.",
    "Five stars from me, no complaints so far.",
    "It does the job and looks nice doing it.",
    "Customer service answered my question within a day.",
    "Honestly better than the one it replaced.",
    "Gift for my sister and she was thrilled.",
)
DESCRIPTION_SENTENCES = (
    "Built for everyday use with a focus on reliability.",
    "Every unit is inspected before it leaves the warehouse.",
    "The design balances a compact footprint with generous capacity.",
    "Backed by a responsive support team and clear documentation.",
    "Materials were chosen to hold up through years of regular use.",
    "Cleaning takes only a minute thanks to smooth surfaces.",
    "A refined finish makes it look at home anywhere.",
    "Thoughtful details reduce setup time and guesswork.",
    "Performance stays consistent from the first use to the hundredth.",
    "Packaging is recyclable and kept to a minimum.",
)
STATUS_WEIGHTS = (("Missing", 35), ("Matching", 30), ("Partially-matching", 20), ("Contradictory", 15))


def normalized(display: str) -> str:
    """The key the program derives from a display name (lowercase, words
    joined by underscores); display names here are plain ASCII words."""
    return "_".join(display.lower().split())


@dataclass
class SynthReview:
    review_id: str
    text: str
    rating: int
    attributes: list[tuple[str, str]]  # (display name, value) as the model reports them


@dataclass
class SynthProduct:
    product_id: str
    title: str
    category: str
    seller_description: str
    reviews: list[SynthReview]

    def record(self) -> dict:
        return {
            "product_id": self.product_id,
            "title": self.title,
            "category": self.category,
            "seller_description": self.seller_description,
            "reviews": [
                {"review_id": r.review_id, "text": r.text, "rating": r.rating} for r in self.reviews
            ],
        }


@dataclass
class Corpus:
    seed: int
    products: list[SynthProduct]
    canned: dict  # CannedReviewModel.from_config payload
    # "stage/unit" -> {"kind": fault kind, "failures": attempts that fail}
    faults: dict[str, dict] = field(default_factory=dict)
    failed_reviews: dict[str, list[str]] = field(default_factory=dict)  # product -> review ids
    grouping_failure: str = ""  # product whose grouping call fails permanently

    def dataset(self, *, without_failed: bool = False) -> list[dict]:
        records = [p.record() for p in self.products]
        if without_failed:
            for record in records:
                dropped = set(self.failed_reviews.get(record["product_id"], ()))
                record["reviews"] = [r for r in record["reviews"] if r["review_id"] not in dropped]
        return records

    # -- what the program is expected to send -------------------------------

    def compared_keys(self, product: SynthProduct, *, faulted: bool) -> frozenset[str]:
        dropped = set(self.failed_reviews.get(product.product_id, ())) if faulted else set()
        return frozenset(
            normalized(name)
            for review in product.reviews
            if review.review_id not in dropped
            for name, _ in review.attributes
        )

    def requests(self, product: SynthProduct, workload: str) -> list[str]:
        """The provider units ("stage/unit") one cold full-mode run of the
        product sends, each once before retries."""
        faulted = workload == "synthetic-faults"
        failed_extraction = {
            unit.split("/", 1)[1]
            for unit, fault in self.faults.items()
            if faulted and unit.startswith("extraction/") and fault["failures"] >= PERMANENT_ATTEMPTS
        }
        units = []
        for review in product.reviews:
            units.append(f"extraction/{review.review_id}")
            if review.attributes and review.review_id not in failed_extraction:
                units.append(f"comparison/{review.review_id}")
        if self.compared_keys(product, faulted=faulted):
            units.append(f"grouping/{product.product_id}")
        return units

    def expected_attempts(self, workload: str) -> dict[str, int]:
        """Provider attempts per product for one pass of the workload."""
        faulted = workload == "synthetic-faults"
        out = {}
        for product in self.products:
            total = 0
            for unit in self.requests(product, workload):
                fault = self.faults.get(unit) if faulted else None
                total += 1 if fault is None else min(fault["failures"], PERMANENT_ATTEMPTS - 1) + 1
            out[product.product_id] = total
        return out

    def grouping_index(self, workload: str) -> dict[frozenset[str], str]:
        """Key set of each product's grouping request -> product id."""
        faulted = workload == "synthetic-faults"
        return {self.compared_keys(p, faulted=faulted): p.product_id for p in self.products}


def generate(seed: int) -> Corpus:
    rng = random.Random(seed)
    categories = list(KEY_POOLS)
    counts = list(REVIEW_COUNTS)
    rng.shuffle(counts)
    serials = iter(rng.sample(range(10_000, 100_000), 8192))
    models = rng.sample(range(1000, 10_000), len(counts))
    step = (DESCRIPTION_CHARS[1] - DESCRIPTION_CHARS[0]) / (len(counts) - 1)
    description_chars = [round(DESCRIPTION_CHARS[0] + i * step) for i in range(len(counts))]
    rng.shuffle(description_chars)

    products: list[SynthProduct] = []
    key_sets: set[frozenset[str]] = set()
    for index, review_count in enumerate(counts):
        category = categories[index % len(categories)]
        pid = f"p{index:03d}"
        while True:  # redraw until this product's key set is unique
            product = _product(
                rng, pid, category, review_count, serials, models[index], description_chars[index]
            )
            keys = frozenset(normalized(n) for r in product.reviews for n, _ in r.attributes)
            if keys and keys not in key_sets:
                break
        key_sets.add(keys)
        products.append(product)

    corpus = Corpus(seed=seed, products=products, canned=_canned_tables(rng, products, serials))
    _plan_faults(rng, corpus)
    return corpus


def _product(rng, pid, category, review_count, serials, model, target) -> SynthProduct:
    pool = KEY_POOLS[category]
    # Opinion-only reviews sit at evenly spaced positions and attribute counts
    # cycle through 1..MAX_ATTRIBUTES, so the shape of a product's schedule
    # depends on its review count only; the seed changes the content.
    silent = round(OPINION_ONLY_SHARE * review_count)
    opinion_only = {int((k + 0.5) * review_count / silent) for k in range(silent)}
    sizes = [1 + i % MAX_ATTRIBUTES for i in range(review_count - silent)]
    reviews = []
    for position in range(review_count):
        rid = f"{pid}-r{position:02d}"
        tag = f"(ref V{next(serials):05d})"
        attributes: list[tuple[str, str]] = []
        if position not in opinion_only:
            for display, _label, unit in rng.sample(pool, sizes.pop(0)):
                serial = next(serials)
                attributes.append((display, f"{serial // 100}.{serial % 100:02d} {unit}"))
        sentences = [f"The {name.lower()} comes to {value}." for name, value in attributes]
        sentences += rng.sample(FILLER, rng.randint(1, 3))
        rng.shuffle(sentences)
        reviews.append(
            SynthReview(rid, " ".join(sentences + [tag]), rng.randint(1, 5), attributes)
        )
    described = [f"The {display.lower()} is stated on the spec sheet." for display, _, _ in rng.sample(pool, 4)]
    parts: list[str] = []
    while sum(len(p) + 1 for p in parts) < target:
        parts.append(rng.choice(DESCRIPTION_SENTENCES + tuple(described)))
    description = " ".join(parts)[:target].rstrip() + "."
    title = f"{rng.choice(BRANDS)} {NOUNS[category]} {model}"
    return SynthProduct(pid, title, category, description, reviews)


def _canned_tables(rng, products, serials) -> dict:
    statuses = [s for s, _ in STATUS_WEIGHTS]
    weights = [w for _, w in STATUS_WEIGHTS]
    comparisons = []
    pairs = []
    invented = []
    for product in products:
        for review in product.reviews:
            for display, value in review.attributes:
                key = normalized(display)
                status = rng.choices(statuses, weights)[0]
                if status == "Contradictory":
                    justification = f"The description says the {display.lower()} differs."
                elif status == "Missing" and rng.random() < 0.5:
                    justification = ""
                else:
                    justification = f"Listing reference for {display.lower()}."
                comparisons.append(
                    {"attribute": key, "value": value, "status": status, "justification": justification}
                )
                pairs.append([key, value])
            if review.attributes and rng.random() < INVENTED_ROW_SHARE:
                display, value = review.attributes[0]
                invented.append(
                    {
                        "trigger": [normalized(display), value],
                        "row": {
                            "attribute": "Invented Detail",
                            "value": f"made up {next(serials)}",
                            "status": "Matching",
                            "justification": "Not asked for.",
                        },
                    }
                )
    categories = {}
    unmapped = []
    for category, pool in KEY_POOLS.items():
        for display, label, _unit in pool:
            categories[normalized(display)] = label
        unmapped += [normalized(d) for d, _, _ in rng.sample(pool, UNMAPPED_KEYS_PER_CATEGORY)]
    omitted = rng.sample(pairs, round(OMITTED_ROW_SHARE * len(pairs)))
    return {
        "extractions": {
            r.review_id: [[name, value] for name, value in r.attributes]
            for p in products
            for r in p.reviews
        },
        "comparisons": comparisons,
        "categories": categories,
        "omit_comparison_pairs": omitted,
        "invented_comparison_rows": invented,
        "omit_grouping_keys": sorted(set(unmapped)),
        "default_category": "General",
    }


def _plan_faults(rng, corpus: Corpus) -> None:
    """Place the permanent failures and the transient ones.

    Placement follows the corpus shape, so every seed delays the same
    schedule positions: the largest products host the permanent review
    failures, the median-sized product's grouping call fails, and each
    product gets TRANSIENT_SHARE of its other requests, evenly spaced, one
    transient failure each. The seed picks the fault kinds. A review whose
    loss would leave two products with the same key set is skipped for the
    next candidate, so grouping calls still identify their product.
    """
    products = corpus.products
    by_size = sorted(products, key=lambda p: (-len(p.reviews), p.product_id))
    hosts = by_size[: PERMANENT_EXTRACTION_FAILURES + PERMANENT_COMPARISON_FAILURES]
    grouping_product = by_size[len(by_size) // 2]
    for offset in range(max(len(p.reviews) for p in products)):
        faults: dict[str, dict] = {}
        failed: dict[str, list[str]] = {}
        for n, product in enumerate(hosts):
            stage = "extraction" if n < PERMANENT_EXTRACTION_FAILURES else "comparison"
            candidates = [r for r in product.reviews if stage == "extraction" or r.attributes]
            review = candidates[(len(candidates) // 2 + offset) % len(candidates)]
            faults[f"{stage}/{review.review_id}"] = {"kind": None, "failures": PERMANENT_ATTEMPTS}
            failed[product.product_id] = [review.review_id]
        faults[f"grouping/{grouping_product.product_id}"] = {"kind": None, "failures": PERMANENT_ATTEMPTS}
        corpus.faults = faults
        corpus.failed_reviews = failed
        corpus.grouping_failure = grouping_product.product_id
        keyed = [corpus.compared_keys(p, faulted=True) for p in products]
        if all(keyed) and len(set(keyed)) == len(keyed):
            break
    else:
        raise ValueError(f"seed {corpus.seed}: no fault placement keeps key sets unique")
    for fault in faults.values():
        fault["kind"] = rng.choice(FAULT_KINDS)

    transient = []
    for product in products:
        units = [u for u in corpus.requests(product, "synthetic-faults") if u not in faults]
        count = round(TRANSIENT_SHARE * len(units))
        transient += [units[int((k + 0.5) * len(units) / count)] for k in range(count)]
    kinds = [FAULT_KINDS[i % len(FAULT_KINDS)] for i in range(len(transient))]
    rng.shuffle(kinds)
    for unit, kind in zip(transient, kinds):
        faults[unit] = {"kind": kind, "failures": 1}
