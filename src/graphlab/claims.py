"""Registry of previously reported index values for Gamma_3, Gamma_4, Gamma_5.

Each claim stores the reported value exactly as printed at its source (the
source string is the citation anchor, with digit-grouping spaces kept
verbatim) together with the exact value it denotes.  Verdicts come from
recomputing every index exactly on the corresponding graph; the
reports are data, so a mismatch documents a discrepancy in the source rather
than a defect here.

Known quirks carried as claim notes:

* The Gamma_4 theorem states Gut(Gamma_4)=10 557 while its own proof ends
  with =3712; the theorem value is registered and the proof value cited.
* The R-index statements for Gamma_4 print s and t only; the w used to
  expand their integers is the one printed with the Gamma_5 statement.
* The Gamma_5 w is printed with unbraced exponents (16^10, 10^19) and is
  read as 31^2*16^10*10^19+412, matching the pattern of s and t.
* The Gamma_5 theorem prints a line labeled M_2(Gamma_4)=47 401; it is filed
  here as the Gamma_5 second Zagreb value.

The registry is built once per process (builtin_claims is cached): its
claims, and the Fractions, ints and RadicalSums they hold, are immutable.
render_report writes the JSON report from one template, as the bytes of
json.dumps(doc, indent=2) plus a newline: the summary counts and each
entry's k by exact._int_str, its strings by exact._quote, and each claimed
and oracle value as its exact.value_text, indented to where the entry's
fields sit (_ENTRY_PAD), or null; parse_report reads it back.  The CLI
prints kept_report(k, fmt): each report is graded and written once per
process per (k, format), and formed again after builtin_claims' cache is
cleared; no value's text is kept apart from the reports.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from . import indices
from .exact import (
    RadicalSum,
    Value,
    _field,
    _int_str,
    _quote,
    format_value,
    value_from_json,
    value_text,
)
from .graphs import build_gamma

MATCH = "match"
MISMATCH = "mismatch"
UNEVALUABLE = "unevaluable"
_VERDICTS = (MATCH, MISMATCH, UNEVALUABLE)


@dataclass(frozen=True)
class Claim:
    """One reported value: identity, exact claimed value, citation anchor."""

    id: str
    k: int
    index: str
    claimed: Value | None
    source: str
    symbolic: str = ""
    note: str = ""


@dataclass(frozen=True)
class ClaimReport:
    """Oracle verdict for one claim."""

    claim: Claim
    oracle: Value | None
    verdict: str
    note: str = ""


# r-degree constants exactly as printed with the claim statements
_S3 = 7 * 4**6 + 31
_T3 = 7**2 * 4**5 + 34
_S45 = 31 * 16**10 * 10**20 + 391
_T45 = 31**2 * 16**9 * 10**20 + 406
_W45 = 31**2 * 16**10 * 10**19 + 412

_G3_WHERE = "where s=7*4^6+31 and t=7^2*4^5+34"
_G45_WHERE = "where s=31*16^10*10^20+391, t=31^2*16^9*10^20+406"
_G5_WHERE = _G45_WHERE + " and w=31^2*16^10*10^19+412"
_G4_W_NOTE = (
    "no w is printed with the Gamma_4 statement; "
    "w=31^2*16^10*10^19+412 from the Gamma_5 statement is used"
)
_G5_W_NOTE = "w is printed with unbraced exponents (16^10, 10^19); read as 16^10 and 10^19"


def _bracket(den: int, rational: int, roots: dict[int, int]) -> RadicalSum:
    """(rational + sum c*sqrt(d)) / den as a RadicalSum."""
    terms = {1: Fraction(rational, den)}
    for d, c in roots.items():
        terms[d] = Fraction(c, den)
    return RadicalSum(terms)


@functools.cache
def builtin_claims() -> tuple[Claim, ...]:
    """All registered claims, in source order; built once per process."""
    c: list[Claim] = []

    def add(k: int, index: str, claimed: Value | None, source: str,
            symbolic: str = "", note: str = "") -> None:
        c.append(Claim(f"gamma{k}.{index}", k, index, claimed, source, symbolic, note))

    # Gamma_3: remark after the closed-form distance-index theorems
    add(3, "wiener", 37, "remark: W(Gamma_3)=37")
    add(3, "hyper_wiener", 46, "remark: WW(Gamma_3)=46")
    add(3, "harary", Fraction(47, 2), "remark: H(Gamma_3)=23.5")

    # Gamma_3 indices theorem
    add(3, "balaban",
        Fraction(19, 26) * _bracket(35, 52, {70: 12}),
        "Gamma_3 theorem: J(Gamma_3)=(19/26)[(52+12 sqrt(70))/35]")
    add(3, "degree_distance", 338, "Gamma_3 theorem: DD(Gamma_3)=338")
    add(3, "gutman", 769, "Gamma_3 theorem: Gut(Gamma_3)=769")
    add(3, "harmonic", Fraction(589, 154), "Gamma_3 theorem: Hm(Gamma_3)=589/154")
    add(3, "r1", 2 * _S3**2 + 6 * _T3**2,
        f"Gamma_3 theorem: R^1(Gamma_3)=2s^2+6t^2, {_G3_WHERE}",
        symbolic="2s^2+6t^2")
    add(3, "r2", _S3**2 + 12 * _S3 * _T3 + 15 * _T3**2,
        f"Gamma_3 theorem: R^2(Gamma_3)=s^2+12st+15t^2, {_G3_WHERE}",
        symbolic="s^2+12st+15t^2")
    add(3, "r3", 14 * _S3 + 42 * _T3,
        f"Gamma_3 theorem: R^3(Gamma_3)=14s+42t, {_G3_WHERE}",
        symbolic="14s+42t")
    add(3, "randic", _bracket(14, 23, {7: 12}),
        "Gamma_3 theorem: R(Gamma_3)=(23+12 sqrt(7))/14")
    add(3, "zagreb2", 481, "Gamma_3 theorem: M_2(Gamma_3)=481")
    add(3, "mostar", 36, "Gamma_3 theorem: Mo(Gamma_3)=36")

    # Gamma_4 indices theorem
    add(4, "balaban",
        Fraction(65, 102) * _bracket(165, 202, {330: 16, 10: 66, 33: 60}),
        "Gamma_4 theorem: J(Gamma_4)=(65/102)[(202+16 sqrt(330)+66 sqrt(10)+60 sqrt(33))/165]")
    add(4, "degree_distance", 3712, "Gamma_4 theorem: DD(Gamma_4)=3 712")
    add(4, "gutman", 10557,
        "Gamma_4 theorem: Gut(Gamma_4)=10 557; the proof of the same theorem ends with =3712")
    add(4, "harmonic", Fraction(36367, 4830),
        "Gamma_4 theorem: Hm(Gamma_4)=36 367/4 830")
    add(4, "r1", 2 * _S45**2 + 8 * _T45**2 + 6 * _W45**2,
        f"Gamma_4 theorem: R^1(Gamma_4)=2s^2+8t^2+6w^2, {_G45_WHERE}",
        symbolic="2s^2+8t^2+6w^2", note=_G4_W_NOTE)
    add(4, "r2",
        _S45**2 + 16 * _S45 * _T45 + 6 * _S45 * _W45 + 15 * _T45**2 + 24 * _T45 * _W45,
        f"Gamma_4 theorem: R^2(Gamma_4)=s^2+16st+6sw+15t^2+24tw, {_G45_WHERE}",
        symbolic="s^2+16st+6sw+15t^2+24tw", note=_G4_W_NOTE)
    add(4, "r3", 24 * _S45 + 70 * _T45 + 30 * _W45,
        f"Gamma_4 theorem: R^3(Gamma_4)=24s+70t+30w, {_G45_WHERE}",
        symbolic="24s+70t+30w", note=_G4_W_NOTE)
    add(4, "randic", _bracket(30, 47, {3: 60, 10: 12, 30: 8}),
        "Gamma_4 theorem: R(Gamma_4)=(47+60 sqrt(3)+12 sqrt(10)+8 sqrt(30))/30")
    add(4, "zagreb2", 3993, "Gamma_4 theorem: M_2(Gamma_4)=3993")
    add(4, "mostar", 268, "Gamma_4 theorem: Mo(Gamma_4)=268")

    # Gamma_5 indices theorem
    add(5, "balaban",
        Fraction(211, 362) * _bracket(9269, 19353, {1426: 260, 403: 920, 598: 1550}),
        "Gamma_5 theorem: J(Gamma_5)=(211/362)"
        "[(19353+260 sqrt(1426)+920 sqrt(403)+1550 sqrt(598))/9269]")
    add(5, "degree_distance", 19682, "Gamma_5 theorem: DD(Gamma_5)=19 682")
    add(5, "gutman", 124201, "Gamma_5 theorem: Gut(Gamma_5)=124 201")
    add(5, "harmonic", Fraction(45901681, 3106324),
        "Gamma_5 theorem: Hm(Gamma_5)=45901681/3106324")
    add(5, "r1", 2 * _S45**2 + 10 * _T45**2 + 20 * _W45**2,
        f"Gamma_5 theorem: R^1(Gamma_5)=2s^2+10t^2+20w^2, {_G5_WHERE}",
        symbolic="2s^2+10t^2+20w^2", note=_G5_W_NOTE)
    add(5, "r2",
        _S45**2 + 20 * _S45 * _T45 + 30 * _S45 * _W45
        + 20 * _T45**2 + 100 * _T45 * _W45 + 30 * _W45**2,
        f"Gamma_5 theorem: R^2(Gamma_5)=s^2+20st+30sw+20t^2+100tw+30w^2, {_G5_WHERE}",
        symbolic="s^2+20st+30sw+20t^2+100tw+30w^2", note=_G5_W_NOTE)
    add(5, "r3", 52 * _S45 + 160 * _T45 + 190 * _W45,
        f"Gamma_5 theorem: R^3(Gamma_5)=52s+160t+190w, {_G5_WHERE}",
        symbolic="52s+160t+190w", note=_G5_W_NOTE)
    add(5, "randic", _bracket(124, 531, {31: 20, 310: 16, 10: 310}),
        "Gamma_5 theorem: R(Gamma_5)=(531+20 sqrt(31)+16 sqrt(310)+310 sqrt(10))/124")
    add(5, "zagreb2", 47401,
        "Gamma_5 theorem: printed as M_2(Gamma_4)=47 401",
        note="printed under the Gamma_5 theorem with a Gamma_4 label; filed as the Gamma_5 value")
    add(5, "mostar", 1720, "Gamma_5 theorem: Mo(Gamma_5)=1 720")

    return tuple(c)


def evaluate_claim(claim: Claim, graph=None) -> ClaimReport:
    """Recompute the claimed index exactly and compare."""
    if claim.claimed is None:
        return ClaimReport(claim, None, UNEVALUABLE,
                           note=claim.note or "claimed value could not be parsed")
    if graph is None:
        graph = build_gamma(claim.k)
    oracle = indices.compute_index(graph, claim.index)
    verdict = MATCH if claim.claimed == oracle else MISMATCH
    return ClaimReport(claim, oracle, verdict, note=claim.note)


def run_all(k: int | None = None) -> list[ClaimReport]:
    """Evaluate every registered claim (optionally only those for one k)."""
    graphs: dict[int, object] = {}
    reports = []
    for claim in builtin_claims():
        if k is not None and claim.k != k:
            continue
        if claim.k not in graphs:
            graphs[claim.k] = build_gamma(claim.k)
        reports.append(evaluate_claim(claim, graphs[claim.k]))
    return reports


def summary_counts(reports: list[ClaimReport]) -> dict[str, int]:
    counts = {"total": len(reports), "match": 0, "mismatch": 0}
    for r in reports:
        if r.verdict == MATCH:
            counts["match"] += 1
        elif r.verdict == MISMATCH:
            counts["mismatch"] += 1
        else:
            counts["unevaluable"] = counts.get("unevaluable", 0) + 1
    return counts


#: The newline and indent of each field of a report entry, in
#: {"reports": [{"claimed": ..., "oracle": ...}]}: the value texts are made
#: at this pad, so the template splices them as they are.
_ENTRY_PAD = "\n      "


def _value_leaf(v: Value | None) -> str:
    """v's value_text indented to sit at _ENTRY_PAD; null for None."""
    return "null" if v is None else value_text(v).replace("\n", _ENTRY_PAD)


def _entry_text(r: ClaimReport) -> str:
    """One entry of the "reports" list, as json.dumps(..., indent=2) writes it there."""
    claim = r.claim
    claimed, oracle = _value_leaf(claim.claimed), _value_leaf(r.oracle)
    fields = [f'"id": {_quote(claim.id)}', f'"k": {_int_str(claim.k)}',
              f'"index": {_quote(claim.index)}', f'"claimed": {claimed}', f'"oracle": {oracle}',
              f'"verdict": {_quote(r.verdict)}', f'"source": {_quote(claim.source)}']
    if claim.symbolic:
        fields.append(f'"symbolic": {_quote(claim.symbolic)}')
    if r.note:
        fields.append(f'"note": {_quote(r.note)}')
    return f"{{{_ENTRY_PAD}{(',' + _ENTRY_PAD).join(fields)}\n    }}"


def _cell(text: str) -> str:
    """text as one markdown table cell: '|' escaped, each newline a space."""
    return text.replace("|", "\\|").replace("\n", " ")


def render_report(reports: list[ClaimReport], fmt: str = "json") -> str:
    """Render verdicts as a JSON document or a markdown table."""
    counts = summary_counts(reports)
    if fmt == "json":
        summary = ",\n    ".join([f'"{key}": {_int_str(n)}' for key, n in counts.items()])
        entries = ",\n    ".join(map(_entry_text, reports))
        body = f"[\n    {entries}\n  ]" if reports else "[]"
        return f'{{\n  "summary": {{\n    {summary}\n  }},\n  "reports": {body}\n}}\n'
    if fmt == "markdown":
        lines = ["# Claim verification report", ""]
        summary = f"{counts['total']} claims: {counts['match']} match, {counts['mismatch']} mismatch"
        if counts.get("unevaluable"):
            summary += f", {counts['unevaluable']} unevaluable"
        lines.append(summary + ".")
        lines.append("")
        lines.append("| id | index | claimed | oracle | verdict | source |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for r in reports:
            lines.append(
                f"| {_cell(r.claim.id)} | {_cell(r.claim.index)} | {format_value(r.claim.claimed)} "
                f"| {format_value(r.oracle)} | {r.verdict} | {_cell(r.claim.source)} |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


@functools.lru_cache(maxsize=8)
def _formed_report(k: int | None, fmt: str) -> tuple[tuple[Claim, ...], str, bool]:
    """The registry, render_report(run_all(k), fmt), and whether any of
    those claims mismatches; the CLI asks for at most eight (k, fmt)."""
    reports = run_all(k)
    return builtin_claims(), render_report(reports, fmt), any(r.verdict == MISMATCH for r in reports)


def kept_report(k: int | None = None, fmt: str = "json") -> tuple[str, bool]:
    """render_report(run_all(k), fmt) and whether any of its claims
    mismatches, graded and written once per process per (k, fmt).  A report
    formed from a registry that builtin_claims no longer returns (its cache
    was cleared) is dropped, with every other kept report, and formed again."""
    registry, text, mismatch = _formed_report(k, fmt)
    if registry is not builtin_claims():
        _formed_report.cache_clear()
        registry, text, mismatch = _formed_report(k, fmt)
    return text, mismatch


def parse_report(doc: str) -> list[ClaimReport]:
    """Inverse of render_report(..., "json"); a missing or wrong-shaped
    field raises ValueError naming it: id, index, source, verdict and the
    optional symbolic and note hold strings, k an int, and verdict one of
    MATCH, MISMATCH and UNEVALUABLE."""
    out = []
    for e in _field(json.loads(doc), "reports", list):
        claim = Claim(
            id=_field(e, "id", str),
            k=_field(e, "k", int),
            index=_field(e, "index", str),
            claimed=value_from_json(_field(e, "claimed")),
            source=_field(e, "source", str),
            symbolic=_field(e, "symbolic", str) if "symbolic" in e else "",
            note=_field(e, "note", str) if "note" in e else "",
        )
        verdict = _field(e, "verdict", str)
        if verdict not in _VERDICTS:
            raise ValueError(f"expected the field 'verdict' to hold one of {_VERDICTS}, "
                             f"got {verdict!r:.40}")
        out.append(ClaimReport(claim, value_from_json(_field(e, "oracle")), verdict, claim.note))
    return out
