#!/usr/bin/env python3
"""Perf-regression gate over deterministic work counters.

Compares a metrics.json emitted by a bench binary (the flat
``{"counter": value}`` object written by WriteMetricsJsonFile) against a
checked-in baseline. Counters are deterministic work counts — predicate
evaluations, partition builds, solver calls — not wall-clock times, so
the comparison is meaningful on noisy shared CI runners.

Baseline format (bench/baselines/*.json)::

    {
      "counters": {"eval.partition_builds": 33, ...},
      "tolerance": 0.0,
      "tolerances": {"eval.code_predicate_evals": 0.02},
      "require_zero": ["eval.predicate_evals"],
      "require_nonzero": ["eval.blocks_skipped"],
      "max_ratio": {
        "repair.rows_deleted": {"of": "repair.initial_violations",
                                "max": 1.0}
      }
    }

``tolerance`` is the default relative slack per counter (0.0 = exact,
the right setting for a fully deterministic pipeline); ``tolerances``
overrides it per counter. Drift beyond the slack fails in BOTH
directions: an increase is a perf regression, a decrease is an
improvement that must be locked in by refreshing the baseline (run with
--update). ``require_zero`` counters must be exactly zero — used to pin
boxed Value evaluations to zero on encoded hot paths.
``require_nonzero`` counters must be strictly positive — used to pin an
optimization as actually engaged (zone-map pruning must skip blocks on
the scan benches; a value of 0 means the fast path silently fell off).
``max_ratio`` pins one counter to at most ``max`` times another from the
same run — an invariant between counters rather than an absolute value,
so it survives workload-size changes. The canonical use: a subset-repair
run may tombstone at most one row per initial violation
(``repair.rows_deleted`` <= 1.0 x ``repair.initial_violations``).

``--update`` refreshes the baseline's counters from an ACTUAL run but
refuses to orphan the policy: when a counter pinned by ``require_zero``
or ``require_nonzero`` is missing from ACTUAL (the workload no longer
emits it), the refresh aborts so the gate cannot silently lose a pin.
``--force`` overrides, dropping the vanished pins with a notice.

Usage::

    check_metrics.py BASELINE ACTUAL          # compare, exit 1 on drift
    check_metrics.py --update BASELINE ACTUAL # rewrite baseline counters
    check_metrics.py --update --force ...     # also drop vanished pins
    check_metrics.py --self-test              # prove the gate can fail
"""

import argparse
import json
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare(baseline, actual):
    """Returns a list of human-readable failure strings (empty = pass)."""
    failures = []
    counters = baseline.get("counters", {})
    default_tol = float(baseline.get("tolerance", 0.0))
    per_counter_tol = baseline.get("tolerances", {})

    for name in sorted(counters):
        expected = int(counters[name])
        if name not in actual:
            failures.append(f"{name}: missing from actual metrics "
                            f"(expected {expected})")
            continue
        got = int(actual[name])
        tol = float(per_counter_tol.get(name, default_tol))
        slack = abs(expected) * tol
        drift = got - expected
        if abs(drift) > slack:
            kind = "regression" if drift > 0 else "improvement"
            fix = ("investigate the extra work" if drift > 0 else
                   "refresh the baseline with --update to lock it in")
            failures.append(
                f"{name}: {kind}: expected {expected} (±{slack:g}), "
                f"got {got} ({drift:+d}) — {fix}")

    for name in baseline.get("require_zero", []):
        got = int(actual.get(name, -1))
        if got != 0:
            failures.append(
                f"{name}: must be exactly 0 on this workload, got {got} "
                f"(boxed work leaked back onto an encoded hot path?)")

    for name in baseline.get("require_nonzero", []):
        got = int(actual.get(name, 0))
        if got <= 0:
            failures.append(
                f"{name}: must be > 0 on this workload, got {got} "
                f"(did the optimization it pins silently disengage?)")

    for name, pin in sorted(baseline.get("max_ratio", {}).items()):
        denom_name = pin["of"]
        max_ratio = float(pin["max"])
        if name not in actual or denom_name not in actual:
            missing = [n for n in (name, denom_name) if n not in actual]
            failures.append(
                f"{name}: max_ratio pin vs {denom_name} cannot be checked "
                f"({', '.join(missing)} missing from actual metrics)")
            continue
        got = int(actual[name])
        denom = int(actual[denom_name])
        if got > max_ratio * denom:
            failures.append(
                f"{name}: must stay <= {max_ratio:g} x {denom_name} "
                f"({max_ratio:g} x {denom} = {max_ratio * denom:g}), "
                f"got {got}")

    return failures


def update_baseline(baseline, actual, force):
    """Refreshed baseline dict, or (None, errors) when the update must be
    refused: a require_zero/require_nonzero pin references a counter the
    ACTUAL run no longer emits, and --force was not given. With --force the
    vanished pins are dropped (returned in the notices list)."""
    errors = []
    notices = []
    for policy in ("require_zero", "require_nonzero"):
        pinned = baseline.get(policy, [])
        vanished = [name for name in pinned if name not in actual]
        if not vanished:
            continue
        if not force:
            for name in vanished:
                errors.append(
                    f"{name}: pinned by {policy} but missing from ACTUAL — "
                    f"refusing to orphan the pin (re-add the counter or "
                    f"pass --force to drop it)")
            continue
        for name in vanished:
            notices.append(f"dropping {policy} pin {name} "
                           f"(missing from ACTUAL, --force)")
        baseline[policy] = [n for n in pinned if n in actual]
    ratio_pins = baseline.get("max_ratio", {})
    vanished_ratios = [name for name, pin in sorted(ratio_pins.items())
                       if name not in actual or pin["of"] not in actual]
    for name in vanished_ratios:
        if not force:
            errors.append(
                f"{name}: pinned by max_ratio (vs {ratio_pins[name]['of']}) "
                f"but a side is missing from ACTUAL — refusing to orphan "
                f"the pin (re-add the counter or pass --force to drop it)")
        else:
            notices.append(f"dropping max_ratio pin {name} "
                           f"(missing from ACTUAL, --force)")
            del ratio_pins[name]
    if errors:
        return None, errors
    baseline["counters"] = {k: int(v) for k, v in sorted(actual.items())}
    return baseline, notices


def self_test():
    """The gate must fail on inflated counters and pass on exact ones."""
    baseline = {
        "counters": {"eval.predicate_evals": 100, "eval.partition_builds": 7},
        "tolerance": 0.0,
        "require_zero": ["eval.boxed_fallbacks"],
        "require_nonzero": ["eval.blocks_skipped"],
    }
    exact = {"eval.predicate_evals": 100, "eval.partition_builds": 7,
             "eval.boxed_fallbacks": 0, "eval.blocks_skipped": 12}
    inflated = dict(exact, **{"eval.predicate_evals": 101})
    deflated = dict(exact, **{"eval.partition_builds": 6})
    nonzero = dict(exact, **{"eval.boxed_fallbacks": 3})
    zeroed = dict(exact, **{"eval.blocks_skipped": 0})
    missing = {"eval.partition_builds": 7, "eval.boxed_fallbacks": 0,
               "eval.blocks_skipped": 12}
    tolerant = {
        "counters": {"eval.predicate_evals": 100},
        "tolerance": 0.05,
    }

    cases = [
        (baseline, exact, 0, "exact match must pass"),
        (baseline, inflated, 1, "inflated counter must fail"),
        (baseline, deflated, 1, "deflated counter must fail"),
        (baseline, nonzero, 1, "nonzero require_zero counter must fail"),
        (baseline, zeroed, 1, "zero require_nonzero counter must fail"),
        (baseline, missing, 1, "missing counter must fail"),
        (tolerant, {"eval.predicate_evals": 104}, 0,
         "drift within tolerance must pass"),
        (tolerant, {"eval.predicate_evals": 106}, 1,
         "drift beyond tolerance must fail"),
    ]
    ratio = {
        "max_ratio": {"repair.rows_deleted":
                      {"of": "repair.initial_violations", "max": 1.0}},
    }
    cases += [
        (ratio, {"repair.rows_deleted": 9, "repair.initial_violations": 12},
         0, "ratio within bound must pass"),
        (ratio, {"repair.rows_deleted": 13, "repair.initial_violations": 12},
         1, "ratio beyond bound must fail"),
        (ratio, {"repair.initial_violations": 12}, 1,
         "max_ratio with missing numerator must fail"),
        (ratio, {"repair.rows_deleted": 9}, 1,
         "max_ratio with missing denominator must fail"),
    ]
    for base, act, want_fail, what in cases:
        failures = compare(base, act)
        got_fail = 1 if failures else 0
        if got_fail != want_fail:
            print(f"self-test FAILED: {what} (failures={failures})")
            return 1

    # --update must refuse to orphan require_zero/require_nonzero pins.
    import copy
    pinned = {
        "counters": {"serve.batches_rejected": 6},
        "require_nonzero": ["serve.batches_rejected"],
        "require_zero": ["eval.predicate_evals"],
        "max_ratio": {"repair.rows_deleted":
                      {"of": "repair.initial_violations", "max": 1.0}},
        "tolerance": 0.0,
    }
    full = {"serve.batches_rejected": 7, "eval.predicate_evals": 0,
            "repair.rows_deleted": 2, "repair.initial_violations": 5}
    no_ratio_denom = {k: v for k, v in full.items()
                      if k != "repair.initial_violations"}
    update_cases = [
        (full, False, True, None,
         "update with all pinned counters present must succeed"),
        ({k: v for k, v in full.items()
          if k != "serve.batches_rejected"}, False, False, None,
         "update missing a require_nonzero counter must be refused"),
        ({k: v for k, v in full.items()
          if k != "eval.predicate_evals"}, False, False, None,
         "update missing a require_zero counter must be refused"),
        (no_ratio_denom, False, False, None,
         "update missing a max_ratio denominator must be refused"),
        (no_ratio_denom, True, True, "max_ratio",
         "forced update must drop the vanished max_ratio pin"),
        ({k: v for k, v in full.items()
          if k != "eval.predicate_evals"}, True, True, "require_zero",
         "forced update must drop only the vanished pin"),
    ]
    for act, force, want_ok, dropped_from, what in update_cases:
        updated, messages = update_baseline(copy.deepcopy(pinned), act, force)
        if (updated is not None) != want_ok:
            print(f"self-test FAILED: {what} (messages={messages})")
            return 1
        if updated is not None:
            if updated["counters"] != {k: int(v)
                                       for k, v in sorted(act.items())}:
                print(f"self-test FAILED: {what} (counters not refreshed)")
                return 1
            if dropped_from and updated[dropped_from]:
                print(f"self-test FAILED: {what} "
                      f"({dropped_from} pin not dropped)")
                return 1
            if dropped_from and not updated["require_nonzero"]:
                print(f"self-test FAILED: {what} (surviving pin dropped)")
                return 1
    print(f"self-test OK ({len(cases) + len(update_cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="compare bench metrics.json against a baseline")
    parser.add_argument("baseline", nargs="?", help="baseline json")
    parser.add_argument("actual", nargs="?", help="metrics.json from a run")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's counters from ACTUAL, "
                             "keeping tolerance/require_zero/require_nonzero "
                             "policy; refuses if a pinned counter is missing "
                             "from ACTUAL")
    parser.add_argument("--force", action="store_true",
                        help="with --update: drop require_zero/"
                             "require_nonzero pins whose counters are "
                             "missing from ACTUAL instead of refusing")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparator fails on drift")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.actual:
        parser.error("BASELINE and ACTUAL are required unless --self-test")

    actual = load_json(args.actual)

    if args.update:
        try:
            baseline = load_json(args.baseline)
        except FileNotFoundError:
            baseline = {"tolerance": 0.0}
        baseline, messages = update_baseline(baseline, actual, args.force)
        if baseline is None:
            print(f"REFUSED: {args.baseline} not updated:")
            for line in messages:
                print(f"  {line}")
            return 1
        for line in messages:
            print(f"notice: {line}")
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated {args.baseline} "
              f"({len(baseline['counters'])} counters)")
        return 0

    baseline = load_json(args.baseline)
    failures = compare(baseline, actual)
    if failures:
        print(f"FAIL: {args.actual} vs {args.baseline}:")
        for line in failures:
            print(f"  {line}")
        return 1
    n = len(baseline.get("counters", {}))
    print(f"OK: {args.actual} matches {args.baseline} ({n} counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
