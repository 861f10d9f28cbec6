"""reviewlens: mine product reviews for facts the listing forgot, got
wrong, or only half-states, and turn them into a deterministic report.

The pipeline runs three LLM steps (per-review extraction, per-review
comparison against the seller description, one grouping call over the
attribute names) and one rule-based structuring step. Single-call baseline
and extraction-only ablated modes produce schema-identical reports for head
to head evaluation. All LLM traffic flows through a gateway with retry,
content-addressed caching, and record/replay fixtures, so the entire test
suite runs offline.
"""

__version__ = "0.1.0"
