"""Output checks of experiment cells.

The operations the benchmark counts are experiment *cells*, the units the
executor splits a sweep into.  A cell fails when it raised, never produced
rows, or its output failed a check below.  The shape checks restate the
assertions of ``benchmarks/test_fig5.py``, ``test_fig6.py`` and
``test_fig9.py``; the Table I check uses the tolerances of
``tests/test_paper_values.py``.  A check over several cells charges its
failure to each cell it read.

The simulation model has no hardware reference: these checks test the
paper's qualitative shapes and the model's own invariants, and the row
digests test determinism.  None of them validates the model.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

Failures = dict[str, list[str]]

#: |avg_distance - paper| tolerance (tests/test_paper_values.py).
AVG_TOL = 0.005
#: |mu1 - paper| tolerance per instance (tests/test_paper_values.py);
#: instances it does not name get the default.
MU1_TOL = {"LPS(23,11)": 0.015, "LPS(53,17)": 0.01}
MU1_TOL_DEFAULT = 0.005
_EPS = 1e-9

#: fig9: (motif, comparison, threshold) on SpectralFly's speedup vs DragonFly.
FIG9_SHAPES = (
    ("Halo3D-26", ">", 1.0),
    ("Sweep3D", ">", 0.85),
    ("FFT (unbalanced)", ">=", 1.0),
)


def _plain(obj: Any) -> Any:
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return obj.tolist()
    return repr(obj)


def digest(rows: list[dict]) -> str:
    """SHA-256 of the rows' canonical JSON (floats written exactly)."""
    text = json.dumps(rows, sort_keys=True, default=_plain, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _add(failures: Failures, cells: Iterable[str], reason: str) -> None:
    for cell in cells:
        failures.setdefault(cell, []).append(reason)


def _check_fig6(cells: dict[str, list[dict]], failures: Failures) -> None:
    sf = [r for rows in cells.values() for r in rows if r["topology"] == "SpectralFly"]
    wins = sum(1 for r in sf if r["speedup_vs_df"] >= 0.95)
    if not sf or wins < int(0.7 * len(sf)):
        _add(failures, cells, f"fig6: SpectralFly >=0.95x DragonFly in only {wins}/{len(sf)} cases")


def _check_fig9(cells: dict[str, list[dict]], failures: Failures) -> None:
    for motif, op, threshold in FIG9_SHAPES:
        for cell, rows in cells.items():
            for r in rows:
                if r["motif"] != motif or r["topology"] != "SpectralFly":
                    continue
                value = r["speedup_vs_df"]
                ok = value > threshold if op == ">" else value >= threshold
                if not ok:
                    _add(failures, [cell], f"fig9: {motif} SpectralFly speedup {value} not {op} {threshold}")


def _check_fig5(cells: dict[str, list[dict]], failures: Failures) -> None:
    by: dict[tuple[str, float], tuple[str, dict]] = {}
    props: list[float] = []
    for cell, rows in cells.items():
        for r in rows:
            by[(r["topology"].split("(")[0], r["failed"])] = (cell, r)
            if r["failed"] not in props:
                props.append(r["failed"])
    props.sort()

    def pair(p: float) -> tuple[tuple[str, dict], tuple[str, dict]]:
        return by[("LPS", p)], by[("SF", p)]

    if 0.1 in props and by[("SF", 0.1)][1]["diameter"] < 3:
        _add(failures, [by[("SF", 0.1)][0]], "fig5: SlimFly diameter < 3 at 10% failures")
    for p in props[:3]:
        (lc, lps), (sc, sf) = pair(p)
        if lps["bisection"] < 0.8 * sf["bisection"]:
            _add(failures, [lc, sc], f"fig5: LPS bisection below 0.8x SlimFly at {p}")
    for p in props:
        (lc, lps), (sc, sf) = pair(p)
        if sf["avg_hops"] > lps["avg_hops"] + 0.05:
            _add(failures, [lc, sc], f"fig5: SlimFly avg hops above LPS at {p}")


def _check_table1(cells: dict[str, list[dict]], failures: Failures) -> None:
    for cell, rows in cells.items():
        for r in rows:
            if "paper_diam" not in r:
                continue
            name = r["topology"]
            if r["diameter"] != r["paper_diam"]:
                _add(failures, [cell], f"table1: {name} diameter {r['diameter']} != {r['paper_diam']}")
            if abs(r["avg_distance"] - r["paper_avg"]) > AVG_TOL + _EPS:
                _add(failures, [cell], f"table1: {name} avg distance {r['avg_distance']} vs {r['paper_avg']}")
            tol = MU1_TOL.get(name, MU1_TOL_DEFAULT)
            if abs(r["mu1"] - r["paper_mu1"]) > tol + _EPS:
                _add(failures, [cell], f"table1: {name} mu1 {r['mu1']} vs {r['paper_mu1']}")


_ROW_CHECKS = {
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig9": _check_fig9,
    "table1": _check_table1,
}


def check_rows(experiment: str, cells: dict[str, list[dict]]) -> Failures:
    """Shape/paper-value checks of one experiment's delivered cell rows."""
    failures: Failures = {}
    check = _ROW_CHECKS.get(experiment)
    if check is None or not cells:
        return failures
    try:
        check(cells, failures)
    except (KeyError, TypeError, ValueError) as exc:
        _add(failures, cells, f"{experiment}: rows not checkable ({exc!r})")
    return failures


def check_summaries(summaries: list[tuple[str | None, bool, int]]) -> Failures:
    """Every simulation must drain: not deadlocked, nothing undelivered."""
    failures: Failures = {}
    for cell, deadlocked, undelivered in summaries:
        if deadlocked or undelivered:
            _add(failures, [str(cell)], f"simulation deadlocked={deadlocked} undelivered={undelivered}")
    return failures


def merge(*parts: Failures) -> Failures:
    out: Failures = {}
    for part in parts:
        for cell, reasons in part.items():
            out.setdefault(cell, []).extend(reasons)
    return out
