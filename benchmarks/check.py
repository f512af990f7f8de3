"""Exact-answer checking of CLI responses.

A response is compared key by key against a reference: numbers must agree
within ``TOL`` (1e-9 absolute, the library's tolerance), everything else
exactly.  Keys missing from the reference are ignored, so a response may
grow new fields (such as a ``"stats"`` object) without failing the check.
"""

from __future__ import annotations

import json

TOL = 1e-9


def mismatch(actual, reference, path: str = "$") -> str | None:
    """The first difference between ``actual`` and ``reference``, or None."""
    if isinstance(reference, bool) or isinstance(actual, bool):
        if actual is not reference:
            return f"{path}: {actual!r} != {reference!r}"
        return None
    if isinstance(reference, (int, float)):
        if not isinstance(actual, (int, float)) or abs(actual - reference) > TOL:
            return f"{path}: {actual!r} != {reference!r}"
        return None
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in reference.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = mismatch(actual[key], value, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return f"{path}: expected a list of {len(reference)}"
        for i, (a, r) in enumerate(zip(actual, reference)):
            found = mismatch(a, r, f"{path}[{i}]")
            if found:
                return found
        return None
    if actual != reference:
        return f"{path}: {actual!r} != {reference!r}"
    return None


def failure(outcome, reference=None) -> str | None:
    """Why a request failed, or None if its answer is acceptable.

    ``outcome`` is ``(exit_code, error, stdout)``.  A request fails on any
    exception, on a nonzero exit code, on output that is not JSON, on a
    bound report whose ``holds`` is false, and on any difference from
    ``reference`` when one is given.
    """
    code, error, stdout = outcome
    if error is not None:
        return error
    if code:
        return f"exit code {code}"
    try:
        response = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(response, dict):
        return "output is not a JSON object"
    for report in response.get("reports", []):
        if report.get("holds") is not True:
            return f"bound {report.get('bound_id')} does not hold"
    if reference is not None:
        return mismatch(response, reference)
    return None
