#!/usr/bin/env python3
"""Build the bundled test corpus: dataset, canned-model script, replay
fixtures for all three pipeline modes (one compacted response-log segment),
golden report bytes, gold attribute sets, and annotation files.

The corpus is three fictional products (an appliance, a beauty product, an
electronics product) with 7 to 9 single-line reviews each. The canned model
answers deterministically from the tables below, with three deliberate
imperfections that exercise the repair paths: it omits one comparison row
(the serum volume), invents one row nobody asked about (serum "Finish"),
and leaves one key out of the grouping answer (serum "scent").

Everything written here is reproducible byte for byte; rerunning the script
must leave a clean git tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reviewlens.cache import DiskResponseCache
from reviewlens.domain import ProductRecord, Review, canonical_json, dump_product_records
from reviewlens.gateway import ReplayBackend
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product
from reviewlens.structuring import ReportFormat, render_report
from reviewlens.testing import CannedReviewModel

PRODUCTS = [
    ProductRecord(
        product_id="app-mixer-001",
        title="NorthWhisk 5-Quart Stand Mixer",
        category="Appliances",
        seller_description=(
            "The NorthWhisk stand mixer pairs a 300 watt motor with a 5-quart "
            "stainless steel bowl and six speed settings. The tilt-head design "
            "makes bowl access easy, and the dough hook, whisk, and flat beater "
            "are all included. Runs quietly even on high. Available only in silver."
        ),
        reviews=[
            Review("mix-r1", "The stainless steel bowl holds a full 5 quarts and cleans up fast. Batter never splashes over.", rating=5),
            Review("mix-r2", "Mine arrived in red, which looks great in my kitchen. Kneads bread dough without strain.", rating=4),
            Review("mix-r3", "Heavier than I expected at about 12 pounds, so it stays put on the counter.", rating=4),
            Review("mix-r4", "The 300 watt motor powers through stiff cookie dough.", rating=5),
            Review("mix-r5", "Six speed settings, and the slowest one really is slow enough for flour. No handle on the bowl, though.", rating=3),
            Review("mix-r6", "Measured around 58 dB on high speed, quiet enough to talk over.", rating=5),
            Review("mix-r7", "Tilt-head design plus the included dough hook make bread day simple.", rating=5),
            Review("mix-r8", "Cord is only about 4 feet, so plan to sit it near an outlet.", rating=3),
        ],
    ),
    ProductRecord(
        product_id="bty-serum-002",
        title="LumaGlow Vitamin C Face Serum",
        category="Beauty",
        seller_description=(
            "LumaGlow brightening serum delivers 15% vitamin C in a 1 fl oz "
            "(30 ml) bottle. The formula is fragrance-free and vegan. Apply two "
            "drops daily for a brighter, more even tone."
        ),
        reviews=[
            Review("ser-r1", "The 30 ml bottle is glass with a dropper top, easy to control.", rating=5),
            Review("ser-r2", "This has 15% vitamin C per the box and mine matches.", rating=4),
            Review("ser-r3", "There is a faint citrus scent when it goes on.", rating=3),
            Review("ser-r4", "Texture is lightweight and it absorbs in under a minute.", rating=5),
            Review("ser-r5", "Absolutely love this stuff, my morning routine is not the same without it!", rating=5),
            Review("ser-r6", "Vegan formula, and one bottle lasted me 60 days using it daily.", rating=4),
            Review("ser-r7", "Each dropper pull is about 1 ml, which is more than the two drops they suggest.", rating=4),
        ],
    ),
    ProductRecord(
        product_id="ele-buds-003",
        title="PulsePods Wireless Earbuds",
        category="Electronics",
        seller_description=(
            "PulsePods connect over Bluetooth 5.3 and play for 8 hours per "
            "charge, with another 24 hours stored in the case. IPX5 water "
            "resistance shrugs off sweat, the case charges over USB-C, and "
            "built-in microphones handle calls. Available in black or white."
        ),
        reviews=[
            Review("bud-r1", "Battery lasts the full 8 hours for me at medium volume.", rating=5),
            Review("bud-r2", "The case adds 24 hours and tops up over USB-C quickly.", rating=5),
            Review("bud-r3", "Spec sheet inside the box says IPX4, not what the store page claims.", rating=2),
            Review("bud-r4", "Paired instantly over Bluetooth 5.3 with my phone and laptop.", rating=5),
            Review("bud-r5", "Got the navy blue pair, the finish is sharp.", rating=4),
            Review("bud-r6", "Each bud weighs 4.2 grams, light enough to forget.", rating=5),
            Review("bud-r7", "Measured about 60 ms of latency in game mode.", rating=4),
            Review("bud-r8", "Eight hours of battery is accurate; I get a full workday of calls.", rating=5),
            Review("bud-r9", "There are two microphones per bud, so calls pick up some room noise.", rating=3),
        ],
    ),
]

# What the canned model "extracts" from each review, in display spelling.
EXTRACTIONS: dict[str, list[tuple[str, str]]] = {
    "mix-r1": [("Bowl Material", "stainless steel"), ("Bowl Capacity", "5 quarts")],
    "mix-r2": [("Color", "red")],
    "mix-r3": [("Weight", "about 12 pounds")],
    "mix-r4": [("Motor Power", "300 watts")],
    "mix-r5": [("Speed Settings", "6")],
    "mix-r6": [("Noise Level", "58 dB")],
    "mix-r7": [("Head Type", "tilt-head"), ("Included Attachments", "dough hook")],
    "mix-r8": [("Cord Length", "about 4 feet")],
    "ser-r1": [("Volume", "30 ml"), ("Bottle Type", "glass with dropper")],
    "ser-r2": [("Vitamin C Concentration", "15%")],
    "ser-r3": [("Scent", "faint citrus")],
    "ser-r4": [("Texture", "lightweight")],
    "ser-r5": [],
    "ser-r6": [("Formulation", "vegan"), ("Supply Duration", "60 days")],
    "ser-r7": [("Dropper Capacity", "1 ml")],
    "bud-r1": [("Battery Life", "8 hours")],
    "bud-r2": [("Case Battery", "24 hours"), ("Charging Port", "USB-C")],
    "bud-r3": [("Water Resistance", "IPX4")],
    "bud-r4": [("Bluetooth Version", "5.3")],
    "bud-r5": [("Color", "navy blue")],
    "bud-r6": [("Weight Per Bud", "4.2 grams")],
    "bud-r7": [("Latency", "60 ms")],
    "bud-r8": [("Battery Life", "8 hours")],
    "bud-r9": [("Microphones", "dual per bud")],
}

# Canned verdict per normalized (attribute, value) pair. Total over every
# pair EXTRACTIONS can produce, including pairs the comparison step omits,
# because the single-call modes answer from this table too.
COMPARISONS: list[dict[str, str]] = [
    {"attribute": "bowl_material", "value": "stainless steel", "status": "Matching", "justification": "The description lists a 5-quart stainless steel bowl."},
    {"attribute": "bowl_capacity", "value": "5 quarts", "status": "Matching", "justification": "States a 5-quart bowl outright."},
    {"attribute": "color", "value": "red", "status": "Contradictory", "justification": "The description says: Available only in silver."},
    {"attribute": "weight", "value": "about 12 pounds", "status": "Missing", "justification": ""},
    {"attribute": "motor_power", "value": "300 watts", "status": "Matching", "justification": "The 300 watt motor is stated."},
    {"attribute": "speed_settings", "value": "6", "status": "Matching", "justification": "Six speed settings are listed."},
    {"attribute": "noise_level", "value": "58 dB", "status": "Partially-matching", "justification": "The listing only says it runs quietly even on high, with no measurement."},
    {"attribute": "head_type", "value": "tilt-head", "status": "Matching", "justification": "Tilt-head design is stated."},
    {"attribute": "included_attachments", "value": "dough hook", "status": "Matching", "justification": "The dough hook is listed among the included attachments."},
    {"attribute": "cord_length", "value": "about 4 feet", "status": "Missing", "justification": "The description never mentions the cord."},
    {"attribute": "volume", "value": "30 ml", "status": "Matching", "justification": "The description lists a 1 fl oz (30 ml) bottle."},
    {"attribute": "bottle_type", "value": "glass with dropper", "status": "Partially-matching", "justification": "The listing mentions a bottle but not the glass or the dropper."},
    {"attribute": "vitamin_c_concentration", "value": "15%", "status": "Matching", "justification": "15% vitamin C is stated."},
    {"attribute": "scent", "value": "faint citrus", "status": "Contradictory", "justification": "The description says: The formula is fragrance-free."},
    {"attribute": "texture", "value": "lightweight", "status": "Missing", "justification": "Texture is never described."},
    {"attribute": "formulation", "value": "vegan", "status": "Matching", "justification": "Vegan is stated."},
    {"attribute": "supply_duration", "value": "60 days", "status": "Missing", "justification": ""},
    {"attribute": "dropper_capacity", "value": "1 ml", "status": "Missing", "justification": "Only a two-drop dose is suggested, with no dropper volume."},
    {"attribute": "battery_life", "value": "8 hours", "status": "Matching", "justification": "8 hours per charge is stated."},
    {"attribute": "case_battery", "value": "24 hours", "status": "Matching", "justification": "Another 24 hours stored in the case."},
    {"attribute": "charging_port", "value": "USB-C", "status": "Matching", "justification": "The case charges over USB-C."},
    {"attribute": "water_resistance", "value": "IPX4", "status": "Contradictory", "justification": "The description says: IPX5 water resistance shrugs off sweat."},
    {"attribute": "bluetooth_version", "value": "5.3", "status": "Matching", "justification": "Bluetooth 5.3 is stated."},
    {"attribute": "color", "value": "navy blue", "status": "Contradictory", "justification": "The description says: Available in black or white."},
    {"attribute": "weight_per_bud", "value": "4.2 grams", "status": "Missing", "justification": ""},
    {"attribute": "latency", "value": "60 ms", "status": "Missing", "justification": "Latency is never mentioned."},
    {"attribute": "microphones", "value": "dual per bud", "status": "Partially-matching", "justification": "Built-in microphones are mentioned, but not how many."},
]

CATEGORIES: dict[str, str] = {
    "bowl_material": "Materials",
    "bowl_capacity": "Physical Attributes",
    "weight": "Physical Attributes",
    "cord_length": "Physical Attributes",
    "color": "Appearance",
    "motor_power": "Performance",
    "speed_settings": "Performance",
    "noise_level": "Performance",
    "head_type": "Design",
    "included_attachments": "Accessories",
    "volume": "Packaging",
    "bottle_type": "Packaging",
    "dropper_capacity": "Packaging",
    "vitamin_c_concentration": "Ingredients",
    "formulation": "Ingredients",
    "texture": "Texture and Feel",
    "supply_duration": "Usage",
    "battery_life": "Performance",
    "case_battery": "Performance",
    "latency": "Performance",
    "charging_port": "Connectivity",
    "bluetooth_version": "Connectivity",
    "water_resistance": "Durability",
    "weight_per_bud": "Physical Attributes",
    "microphones": "Audio Hardware",
    # "scent" is deliberately absent; the grouping answer also omits it.
}

CANNED_MODEL_CONFIG = {
    "extractions": {rid: [list(row) for row in rows] for rid, rows in EXTRACTIONS.items()},
    "comparisons": COMPARISONS,
    "categories": CATEGORIES,
    "omit_comparison_pairs": [["volume", "30 ml"]],
    "invented_comparison_rows": [
        {
            "trigger": ["texture", "lightweight"],
            "row": {
                "attribute": "Finish",
                "value": "dewy",
                "status": "Matching",
                "justification": "Implied by the brightening claims.",
            },
        }
    ],
    "omit_grouping_keys": ["scent"],
    "default_category": "General",
}

GOLD = {
    "products": [
        {
            "product_id": "app-mixer-001",
            "reviews": [
                {"review_id": "mix-r1", "gold": [
                    {"attribute": "Bowl Material", "value": "stainless steel"},
                    {"attribute": "Bowl Capacity", "value": "5 quarts"},
                ]},
                {"review_id": "mix-r2", "gold": [{"attribute": "Color", "value": "red"}]},
                # Annotators keep the bare number; the pipeline kept the hedge.
                {"review_id": "mix-r3", "gold": [{"attribute": "Weight", "value": "12 pounds"}]},
                {"review_id": "mix-r4", "gold": [{"attribute": "Motor Power", "value": "300 watts"}]},
                {"review_id": "mix-r5", "gold": [
                    {"attribute": "Speed Settings", "value": "6"},
                    {"attribute": "Bowl Handle", "value": "none"},
                ]},
                {"review_id": "mix-r6", "gold": [{"attribute": "Noise Level", "value": "58 dB"}]},
                {"review_id": "mix-r7", "gold": [
                    {"attribute": "Head Type", "value": "tilt-head"},
                    {"attribute": "Included Attachments", "value": "dough hook"},
                ]},
                {"review_id": "mix-r8", "gold": [{"attribute": "Cord Length", "value": "about 4 feet"}]},
            ],
        },
        {
            "product_id": "bty-serum-002",
            "reviews": [
                {"review_id": "ser-r1", "gold": [
                    {"attribute": "Volume", "value": "30 ml"},
                    {"attribute": "Bottle Type", "value": "glass with dropper"},
                ]},
                {"review_id": "ser-r2", "gold": [{"attribute": "Vitamin C Concentration", "value": "15%"}]},
                {"review_id": "ser-r3", "gold": [{"attribute": "Scent", "value": "faint citrus"}]},
                {"review_id": "ser-r4", "gold": [
                    {"attribute": "Texture", "value": "lightweight"},
                    {"attribute": "Absorption Time", "value": "under a minute"},
                ]},
                {"review_id": "ser-r5", "gold": []},
                {"review_id": "ser-r6", "gold": [
                    {"attribute": "Formulation", "value": "vegan"},
                    {"attribute": "Supply Duration", "value": "60 days"},
                ]},
                {"review_id": "ser-r7", "gold": [{"attribute": "Dropper Capacity", "value": "1 ml"}]},
            ],
        },
        {
            "product_id": "ele-buds-003",
            "reviews": [
                {"review_id": "bud-r1", "gold": [{"attribute": "Battery Life", "value": "8 hours"}]},
                {"review_id": "bud-r2", "gold": [
                    {"attribute": "Case Battery", "value": "24 hours"},
                    {"attribute": "Charging Port", "value": "USB-C"},
                ]},
                {"review_id": "bud-r3", "gold": [{"attribute": "Water Resistance", "value": "IPX4"}]},
                {"review_id": "bud-r4", "gold": [{"attribute": "Bluetooth Version", "value": "5.3"}]},
                {"review_id": "bud-r5", "gold": [{"attribute": "Color", "value": "navy blue"}]},
                {"review_id": "bud-r6", "gold": [{"attribute": "Weight Per Bud", "value": "4.2 grams"}]},
                # The annotator kept the game-mode qualifier the pipeline lost.
                {"review_id": "bud-r7", "gold": [{"attribute": "Game Mode Latency", "value": "60 ms"}]},
                {"review_id": "bud-r8", "gold": [{"attribute": "Battery Life", "value": "8 hours"}]},
                {"review_id": "bud-r9", "gold": [{"attribute": "Microphones", "value": "dual per bud"}]},
            ],
        },
    ]
}

ERROR_ANNOTATIONS = [
    {"product_id": "app-mixer-001", "review_id": "mix-r3", "step": "Extraction", "error_category": "incorrect_normalization", "note": "weight kept the hedge word"},
    {"product_id": "app-mixer-001", "review_id": "mix-r5", "step": "Extraction", "error_category": "omitted_attribute", "note": "missing bowl handle detail"},
    {"product_id": "bty-serum-002", "review_id": "ser-r4", "step": "Extraction", "error_category": "omitted_attribute", "note": "absorption time stated but not extracted"},
    {"product_id": "ele-buds-003", "review_id": "bud-r7", "step": "Extraction", "error_category": "incorrect_extraction", "note": "latency lost the game-mode qualifier"},
    {"product_id": "bty-serum-002", "review_id": "ser-r1", "step": "Comparison", "error_category": "misclassified_missing", "note": "bottle volume is in the listing but came back Missing"},
    {"product_id": "ele-buds-003", "review_id": "bud-r9", "step": "Comparison", "error_category": "misclassified_partial", "note": "microphone count arguably contradicts the wording"},
    {"product_id": "bty-serum-002", "step": "Grouping", "error_category": "missing_category", "note": "scent left unassigned"},
]

CRITERION_ANNOTATIONS = [
    {"product_id": "app-mixer-001", "mode": "full", "criterion": "product_focus", "note": "counter placement remark kept"},
    {"product_id": "app-mixer-001", "mode": "baseline", "criterion": "detail_retention", "note": "noise measurement justification lost"},
    {"product_id": "app-mixer-001", "mode": "baseline", "criterion": "detail_retention", "note": "contradiction quote lost"},
    {"product_id": "app-mixer-001", "mode": "baseline", "criterion": "correct_categorization", "note": "everything lumped into General"},
    {"product_id": "app-mixer-001", "mode": "baseline", "criterion": "correct_categorization", "note": "appearance finding not separated"},
    {"product_id": "app-mixer-001", "mode": "baseline", "criterion": "opinion_exclusion", "note": "looks great remark echoed"},
    {"product_id": "app-mixer-001", "mode": "ablated", "criterion": "correct_categorization", "note": "attachment grouped under Design"},
    {"product_id": "app-mixer-001", "mode": "ablated", "criterion": "detail_retention", "note": "one bowl value dropped"},
]


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def build(root: Path) -> None:
    model = CannedReviewModel.from_config(PRODUCTS, CANNED_MODEL_CONFIG)
    fixtures_dir = root / "fixtures"
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    # Recording starts from an empty log, so no answer an earlier build
    # recorded is served from the cache.
    for segment in fixtures_dir.glob("*.log"):
        segment.unlink()

    dump_product_records(PRODUCTS, root / "dataset.json")
    _write(root / "canned_model.json", canonical_json(CANNED_MODEL_CONFIG).encode("utf-8"))
    _write(root / "gold.json", canonical_json(GOLD).encode("utf-8"))
    _write(
        root / "annotations.jsonl",
        ("\n".join(json.dumps(row, ensure_ascii=False) for row in ERROR_ANNOTATIONS) + "\n").encode("utf-8"),
    )
    _write(
        root / "criteria.jsonl",
        ("\n".join(json.dumps(row, ensure_ascii=False) for row in CRITERION_ANNOTATIONS) + "\n").encode("utf-8"),
    )
    _write(
        root / "config.json",
        canonical_json(PipelineConfig(workers=4).to_dict()).encode("utf-8"),
    )

    # Record every mode through the response cache, then render goldens from
    # a replay pass so the checked-in bytes are the replay bytes by
    # construction.
    store = DiskResponseCache(fixtures_dir)
    for mode in PipelineMode:
        config = PipelineConfig(mode=mode, workers=4)
        for product in PRODUCTS:
            run_product(product, config, model, cache=store)
    held = len(list(store))
    store.compact()  # into one segment, sorted by fingerprint
    replay = ReplayBackend(fixtures_dir)
    for mode in PipelineMode:
        config = PipelineConfig(mode=mode, workers=4)
        for product in PRODUCTS:
            result = run_product(product, config, replay)
            if result.failed_units:
                raise SystemExit(f"corpus build failed units: {result.failed_units}")
            base = root / "golden" / mode.value / product.product_id
            _write(base / "report.json", render_report(result.report, ReportFormat.JSON))
            _write(base / "report.md", render_report(result.report, ReportFormat.MARKDOWN))
    print(f"fixtures: {held} responses in {fixtures_dir}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "testdata",
        help="corpus output directory",
    )
    args = parser.parse_args()
    build(args.root)


if __name__ == "__main__":
    main()
