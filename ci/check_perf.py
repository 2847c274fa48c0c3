#!/usr/bin/env python3
"""Gate deterministic benchmark results against a checked-in baseline.

The simulator is a discrete-event model: for a fixed configuration the
makespans and message counts are bit-reproducible, so any drift in them is a
real behavioral change, not measurement noise. Wall-clock rates
(events/sec) are machine-dependent and get wide tolerances or are gated as
ratios measured within one run.

What is gated is declared by the *baseline* via a required top-level
"schema" object, so one script serves every bench:

    "schema": {
      "key":       ["nodes", "backend"],      # fields identifying a point
      "exact":     ["messages", "makespan"],  # == between current/baseline
      "tolerance": {"makespan": 0.15,         # shorthand: higher is worse
                    "events_per_sec": {"rel": 0.9, "worse": "below"}},
      "floor":     {"speedup": 2.0},          # current value must be >= this
      "relations": [                          # cross-point asserts, current run
        {"metric": "makespan", "op": "<=", "factor": 0.5,
         "left":  {"workload": "potrf", "placement": "gpu-greedy"},
         "right": {"workload": "potrf", "placement": "cpu-only"}}
      ]
    }

  * key       — tuple of point fields forming the point's identity.
  * exact     — compared with ==. Counts, and makespans where bit-identity
                itself is the contract.
  * tolerance — relative drift bounds vs the baseline value. A bare number t
                means the current value may exceed baseline by at most t
                (makespan semantics: higher is worse). The long form picks
                the bad direction: "above" fails when current > base*(1+rel),
                "below" fails when current < base*(1-rel).
  * floor     — absolute lower bounds on the current value, independent of
                the baseline value. For host-independent ratios (e.g. the
                sharded/serial speedup) measured within a single run.
                Points lacking the field are not gated on it.
  * relations — ordering asserts between two points of the *current* run
                (host-independent, like floor): left/right each name one
                point by its full key, and the check is
                left[metric] op factor * right[metric] with op "<" or "<="
                (factor defaults to 1). This is how the device-placement
                baseline pins "gpu-greedy beats cpu-only" structurally
                instead of through drift-prone absolute values.

A baseline without a "schema" is malformed and rejected.

Every other top-level scalar is a config field the two documents must agree
on. Exit code 0 = within bounds, 1 = regression/mismatch, 2 = usage error.
Only the Python standard library is used. Unit tests: ci/test_check_perf.py.
"""

import argparse
import json
import sys

def normalize_tolerance(spec):
    """Expand shorthand tolerances to {"rel": float, "worse": "above"|"below"}."""
    out = {}
    for field, rule in spec.items():
        if isinstance(rule, dict):
            rel, worse = rule.get("rel"), rule.get("worse", "above")
        else:
            rel, worse = rule, "above"
        if not isinstance(rel, (int, float)) or rel < 0:
            sys.exit(f"error: bad tolerance for '{field}': {rule!r}")
        if worse not in ("above", "below"):
            sys.exit(f"error: bad 'worse' direction for '{field}': {worse!r}")
        out[field] = {"rel": float(rel), "worse": worse}
    return out


def normalize_relations(spec, key_fields):
    """Validate relation entries and pre-resolve their selectors to keys."""
    out = []
    for rel in spec:
        metric, op = rel.get("metric"), rel.get("op", "<")
        factor = rel.get("factor", 1.0)
        if not isinstance(metric, str) or not metric:
            sys.exit(f"error: relation lacks a 'metric': {rel!r}")
        if op not in ("<", "<="):
            sys.exit(f"error: bad relation op {op!r} (use '<' or '<=')")
        if not isinstance(factor, (int, float)) or factor <= 0:
            sys.exit(f"error: bad relation factor for '{metric}': {factor!r}")
        sides = {}
        for side in ("left", "right"):
            sel = rel.get(side)
            if not isinstance(sel, dict):
                sys.exit(f"error: relation '{metric}' lacks a '{side}' selector")
            try:
                sides[side] = tuple(sel[k] for k in key_fields)
            except KeyError as e:
                sys.exit(f"error: relation '{metric}' {side} selector lacks "
                         f"key field {e}")
        out.append({"metric": metric, "op": op, "factor": float(factor),
                    "left": sides["left"], "right": sides["right"]})
    return out


def load_schema(baseline_doc):
    raw = baseline_doc.get("schema")
    if not isinstance(raw, dict):
        sys.exit("error: baseline has no 'schema' object")
    schema = {
        "key": list(raw.get("key", ())),
        "exact": list(raw.get("exact", ())),
        "tolerance": normalize_tolerance(raw.get("tolerance", {})),
        "floor": dict(raw.get("floor", {})),
    }
    if not schema["key"]:
        sys.exit("error: schema 'key' must name at least one field")
    schema["relations"] = normalize_relations(raw.get("relations", ()),
                                              schema["key"])
    return schema


def load_points(path, key_fields):
    with open(path) as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("points", []):
        try:
            key = tuple(p[k] for k in key_fields)
        except KeyError as e:
            sys.exit(f"error: point in {path} lacks key field {e}")
        if key in points:
            sys.exit(f"error: duplicate point {key} in {path}")
        points[key] = p
    if not points:
        sys.exit(f"error: no points in {path}")
    return doc, points


def check_point(base, cur, schema):
    """Return a list of failure strings for one (baseline, current) pair."""
    problems = []
    for f in schema["exact"]:
        if cur.get(f, 0) != base.get(f, 0):
            problems.append(f"{f} {base.get(f, 0)} -> {cur.get(f, 0)} (exact)")
    for f, rule in schema["tolerance"].items():
        if f not in base or f not in cur:
            continue
        b, c = base[f], cur[f]
        if rule["worse"] == "above" and c > b * (1.0 + rule["rel"]):
            problems.append(
                f"{f} {c:.6g} above {b:.6g} by more than {100 * rule['rel']:.0f}%")
        if rule["worse"] == "below" and c < b * (1.0 - rule["rel"]):
            problems.append(
                f"{f} {c:.6g} below {b:.6g} by more than {100 * rule['rel']:.0f}%")
    for f, bound in schema["floor"].items():
        if f not in cur and f not in base:
            continue
        if cur.get(f) is None or cur[f] < bound:
            problems.append(f"{f} {cur.get(f)} under floor {bound}")
    return problems


def check_relations(cur, schema):
    """Cross-point ordering asserts over the current run. Returns failures."""
    failures = []
    for rel in schema["relations"]:
        metric, op, factor = rel["metric"], rel["op"], rel["factor"]
        label = (f"{','.join(map(str, rel['left']))} {metric} {op} "
                 f"{factor:g} * {','.join(map(str, rel['right']))} {metric}")
        sides = []
        for side in ("left", "right"):
            p = cur.get(rel[side])
            if p is None:
                failures.append(f"{label}: current run lacks point {rel[side]}")
                break
            if metric not in p:
                failures.append(f"{label}: point {rel[side]} lacks '{metric}'")
                break
            sides.append(p[metric])
        if len(sides) != 2:
            continue
        lv, rv = sides
        ok = lv < factor * rv if op == "<" else lv <= factor * rv
        print(f"  relation {label}: {lv:.6g} vs {factor * rv:.6g} "
              f"{'ok' if ok else 'VIOLATED'}")
        if not ok:
            failures.append(f"{label}: {lv:.6g} !{op} {factor * rv:.6g}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly produced BENCH_*.json")
    ap.add_argument("baseline", help="checked-in baseline JSON")
    args = ap.parse_args()

    with open(args.baseline) as f:
        schema = load_schema(json.load(f))

    base_doc, base = load_points(args.baseline, schema["key"])
    cur_doc, cur = load_points(args.current, schema["key"])

    # Every top-level scalar except the point list and the schema is a config
    # field the two documents must agree on.
    config_fields = sorted((set(cur_doc) | set(base_doc)) - {"points", "schema"})
    for field in config_fields:
        if cur_doc.get(field) != base_doc.get(field):
            sys.exit(f"error: config mismatch on '{field}': "
                     f"current={cur_doc.get(field)} baseline={base_doc.get(field)} "
                     f"(refresh {args.baseline})")

    missing = sorted(set(base) - set(cur))
    if missing:
        sys.exit(f"error: current run is missing baseline points: {missing}")

    key_hdr = "/".join(schema["key"])
    failures = []
    for key in sorted(base, key=str):
        problems = check_point(base[key], cur[key], schema)
        label = ",".join(str(k) for k in key)
        print(f"  {key_hdr}=({label}): {'ok' if not problems else '; '.join(problems)}")
        if problems:
            failures.append((key, problems))

    extra = sorted(set(cur) - set(base), key=str)
    if extra:
        print(f"note: current run has points absent from baseline "
              f"(not gated): {extra}")

    for problem in check_relations(cur, schema):
        failures.append(("relation", [problem]))

    if failures:
        print(f"\nFAIL: {len(failures)} point(s) out of bounds. If the change "
              "is intentional, refresh the baseline (ci/refresh_baselines.sh "
              f"regenerates every BENCH_*.json, including {args.baseline}).")
        return 1
    print(f"\nOK: all {len(base)} points within the baseline's schema bounds.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
