"""Correctness checks applied to every measured iteration.

Each check returns a list of human-readable problems; an empty list
means the reports are right.  A trace or session with any problem
counts as failed in the run's ``failed`` / ``attempted`` figures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def join_expected(reports: Sequence, expected: Sequence) -> List[str]:
    """Join race reports against an app's ground truth the way
    ``repro.analysis.precision.evaluate_run`` does: every report must
    match one expected race and every expected race must be matched."""
    remaining = list(expected)
    problems = []
    for report in reports:
        match = next((e for e in remaining if e.matches(report.key)), None)
        if match is None:
            problems.append(f"unmatched report {report.key}")
            continue
        remaining.remove(match)
    problems.extend(
        f"missed expected race {e.field} ({e.use_method} / {e.free_method})"
        for e in remaining
    )
    return problems


def same_reports(got: Sequence[str], want: Sequence[str]) -> List[str]:
    """Report strings must equal the offline reference byte for byte."""
    if list(got) == list(want):
        return []
    missing = [r for r in want if r not in got]
    extra = [r for r in got if r not in want]
    problems = [f"missing report {r}" for r in missing]
    problems.extend(f"unexpected report {r}" for r in extra)
    return problems or ["reports differ in order"]


def daemon_sessions(report, reference: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """Per-session problems of a ``DaemonReport`` against the offline
    reference; sessions without problems are left out."""
    problems: Dict[str, List[str]] = {}
    for sid, want in reference.items():
        session = report.sessions.get(sid)
        if session is None:
            problems[sid] = ["session missing from the daemon report"]
            continue
        found = same_reports(session.reports, want)
        if session.error or session.degraded or not session.ended:
            found.append(
                f"session closed badly: error={session.error!r} "
                f"degraded={session.degraded} ended={session.ended}"
            )
        if found:
            problems[sid] = found
    for sid in report.sessions.keys() - reference.keys():
        problems[sid] = ["session not in the input"]
    return problems
