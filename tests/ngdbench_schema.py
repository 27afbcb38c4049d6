#!/usr/bin/env python3
"""Checks a BENCH JSON file written by ngdbench.

The top level must hold exactly the keys below: a series dropped or
added without a schema edit is an error. Every series must be complete,
including each Fig. 4 panel (a)-(n), each Exp-5 dataset and each
engine-claims leg; "peak_rss_mb" and every value under a
"timings_seconds" key must be positive numbers.

usage: ngdbench_schema.py BENCH.json
"""

import json
import sys

TOP_LEVEL = ["bench", "peak_rss_mb"]
SERIES = ["fig4ad_sweep", "fig4_panels", "exp5", "engine_claims"]
PANELS = list("abcdefghijklmn")
EXP5_DATASETS = ["dbpedia-like", "yago2-like", "pokec-like"]
CLAIMS = ["literal_overhead", "localizability", "hub_sweep_dect",
          "fig4_selective_dect"]


def timings(node, path):
    """Yields (path, value) for every entry of every timings_seconds object."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}"
            if key == "timings_seconds" and isinstance(value, dict):
                for name, seconds in value.items():
                    yield f"{where}.{name}", seconds
            else:
                yield from timings(value, where)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from timings(value, f"{path}[{i}]")


def positive(value):
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and value > 0


def check(doc):
    errors = [f"missing key {k}" for k in TOP_LEVEL + SERIES if k not in doc]
    errors += [f"unexpected top-level key {k}" for k in doc
               if k not in TOP_LEVEL + SERIES]
    if "peak_rss_mb" in doc and not positive(doc["peak_rss_mb"]):
        errors.append(f"peak_rss_mb = {doc['peak_rss_mb']!r} is not positive")
    panels = doc.get("fig4_panels", {}).get("panels", {})
    for pid in PANELS:
        panel = panels.get(pid)
        if panel is None:
            errors.append(f"missing fig4_panels panel {pid}")
        elif not panel.get("points"):
            errors.append(f"fig4_panels panel {pid} has no points")
        elif not isinstance(panel.get("shape_reproduced"), bool):
            errors.append(f"fig4_panels panel {pid} lacks shape_reproduced")
    datasets = doc.get("exp5", {}).get("datasets", {})
    errors += [f"missing exp5 dataset {d}" for d in EXP5_DATASETS
               if d not in datasets]
    claims = doc.get("engine_claims", {})
    errors += [f"missing engine_claims leg {c}" for c in CLAIMS
               if c not in claims]
    count = 0
    for where, seconds in timings(doc, "$"):
        count += 1
        if not positive(seconds):
            errors.append(f"{where} = {seconds!r} is not a positive time")
    if count == 0:
        errors.append("no timings_seconds values found")
    return errors, count


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)
    errors, count = check(doc)
    for e in errors:
        print(f"ngdbench_schema: {e}")
    if errors:
        return 1
    print(f"ngdbench_schema: {len(SERIES)} series, {len(PANELS)} panels, "
          f"{count} timings OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
