"""Compare emitted JSON reports against the recorded reference outcomes.

``reference.json`` holds, for every benchmark spec at seed offset 0, each
check's outcome and each verdict's ``points_tested`` / ``points_skipped``.
A check is wrong when its spec raised, when it is missing from the report,
when its outcome differs (a ``skip`` is always wrong: the reference holds
only ``pass`` and ``fail``), or when any verdict's point counts differ.

Point counts at another seed offset follow from the recorded ones: every
verdict sweeps the spec's sample points a whole number of times, testing
each evaluable point and skipping the rest, so at any seed it must test
``sweeps * valid`` and skip ``sweeps * (samples - valid)`` points, where
``valid`` is the number of evaluable sample points at that seed.

The checker reads only ``outcome`` and the verdict counts, never
``matched``, because ``matched`` counts a skip as meeting any expectation.
"""

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_counts(ref_spec, valid):
    """Expected ``[tested, skipped]`` of each verdict, check by check, at a
    seed where ``valid`` of the spec's ``samples`` points are evaluable."""
    samples = ref_spec["samples"]
    out = {}
    for check, ref in ref_spec["checks"].items():
        counts = []
        for tested, skipped in ref["verdicts"]:
            sweeps, rest = divmod(tested + skipped, samples)
            if rest:
                raise ValueError(f"reference verdict of {check!r} is not a whole number of sweeps")
            counts.append([sweeps * valid, sweeps * (samples - valid)])
        out[check] = counts
    return out


def wrong_checks(reports, reference, valid):
    """Checks whose report disagrees with the reference.

    ``reports`` maps spec name to the parsed JSON report, or to ``None``
    when running the spec raised.  ``valid`` maps spec name to its number
    of evaluable sample points at the run's seed.  Returns a list of
    ``[spec, check, reason]``; every reference check of every spec in
    ``reports`` is attempted.
    """
    wrong = []
    for spec, report in reports.items():
        ref_spec = reference[spec]
        if report is None:
            wrong.extend([spec, check, "raised"] for check in ref_spec["checks"])
            continue
        results = {r["name"]: r for r in report["checks"]}
        expected = expected_counts(ref_spec, valid[spec])
        for check, ref in ref_spec["checks"].items():
            got = results.get(check)
            if got is None:
                wrong.append([spec, check, "missing from report"])
            elif got["outcome"] != ref["outcome"]:
                wrong.append([spec, check, f"outcome {got['outcome']}, expected {ref['outcome']}"])
            else:
                counts = [[v["points_tested"], v["points_skipped"]] for v in got["verdicts"]]
                if counts != expected[check]:
                    wrong.append([spec, check, f"point counts {counts}, expected {expected[check]}"])
    return wrong


def attempted_checks(reports, reference):
    return sum(len(reference[spec]["checks"]) for spec in reports)
