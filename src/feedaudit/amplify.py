"""Amplification ratios against a balanced baseline.

The amplification of author u for a partisan group is
a_u = ((mean_partisan + 1) / (mean_balanced + 1) - 1) * 100, a
percentage change of add-one smoothed mean exposures. The smoothing
keeps the ratio defined when the author never reaches the baseline
group and bounds it below by -100%. Per-author significance comes from
a Mann-Whitney U test of the author's per-monitor exposures in the two
groups; a monitor that never saw the author contributes exposure 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .metrics import ExposureTable, author_index, group_exposures
from .model import AuthorId, LEAN_UNKNOWN
from .mwu import MODE_AUTO, mann_whitney_u, mann_whitney_u_many


def amplification_ratio(
    partisan_mean: float | np.ndarray, baseline_mean: float | np.ndarray
) -> float | np.ndarray:
    """Smoothed percent amplification of a partisan mean over a baseline;
    element-wise when given arrays of means."""
    if np.any(partisan_mean < 0) or np.any(baseline_mean < 0):
        raise AnalysisError("mean exposures must be non-negative")
    return ((partisan_mean + 1.0) / (baseline_mean + 1.0) - 1.0) * 100.0


@dataclass(frozen=True)
class AmplificationRow:
    """Amplification result for one author."""

    author_id: AuthorId
    lean_label: str
    partisan_mean: float
    baseline_mean: float
    ratio_pct: float
    statistic: float
    pvalue: float
    significant: bool


def _ranked(values: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """Positions of ``values`` by descending value, ties broken by the
    authors' id order ``id_rank``."""
    return np.lexsort((id_rank, -values))


def build_amplification_report(
    partisan_tables: Sequence[ExposureTable],
    baseline_tables: Sequence[ExposureTable],
    *,
    top: int = 50,
    alpha: float = 0.05,
    leans: Mapping[AuthorId, str] | None = None,
    mode: str = MODE_AUTO,
) -> tuple[AmplificationRow, ...]:
    """Amplification rows for the top authors by exposure.

    Candidate authors are the top ``top`` by mean exposure pooled over
    the partisan and baseline monitors together. Ranking by a statistic
    symmetric in the two groups keeps the per-author significance tests
    valid for the selected rows; ranking by the partisan mean alone
    would select authors whose partisan draws happen to be high and
    inflate the false-positive rate well above alpha under the null.

    Rows are sorted by descending ratio, ties broken by author id.
    Both groups need at least two monitors for the rank test to be
    meaningful.
    """
    if top < 1:
        raise ConfigError(f"top must be >= 1, got {top}")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if len(partisan_tables) < 2 or len(baseline_tables) < 2:
        raise DataError("need at least two monitors per group")

    n_part = len(partisan_tables)
    n_base = len(baseline_tables)
    index = author_index([*partisan_tables, *baseline_tables])
    part, partisan_means, partisan_seen = group_exposures(partisan_tables, index)
    base, baseline_means, baseline_seen = group_exposures(baseline_tables, index)
    pooled = (partisan_means * n_part + baseline_means * n_base) / (n_part + n_base)
    authors = list(index)
    id_rank = np.empty(len(authors), dtype=np.intp)
    id_rank[sorted(range(len(authors)), key=authors.__getitem__)] = np.arange(len(authors))
    candidates = _ranked(pooled, id_rank)[:top]
    tests = mann_whitney_u_many(part[candidates], base[candidates], mode=mode)
    candidate_ids = [authors[c] for c in candidates.tolist()]
    p_means = partisan_means[candidates]
    b_means = baseline_means[candidates]
    ratios = amplification_ratio(p_means, b_means)
    # An author a group never saw gets the float 0.0 as that group's
    # mean, a seen one its numpy mean: the scalar types show in a row's
    # repr, which callers digest.
    p_seen = partisan_seen[candidates].tolist()
    b_seen = baseline_seen[candidates].tolist()
    leans = leans or {}
    rows = []
    for i in _ranked(ratios, id_rank[candidates]).tolist():
        author = candidate_ids[i]
        res = tests[i]
        rows.append(
            AmplificationRow(
                author_id=author,
                lean_label=leans.get(author, LEAN_UNKNOWN),
                partisan_mean=p_means[i] if p_seen[i] else 0.0,
                baseline_mean=b_means[i] if b_seen[i] else 0.0,
                ratio_pct=ratios[i],
                statistic=res.statistic,
                pvalue=res.pvalue,
                significant=res.pvalue < alpha,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class AmplificationMagnitude:
    """Cross-group comparison of amplification magnitudes.

    The amplified fields compare the positive ratios of the two row
    sets; the deamplified fields compare the negative ratios and are
    None when either side has no negative rows.
    """

    amplified_mean_a: float
    amplified_mean_b: float
    amplified_count_a: int
    amplified_count_b: int
    amplified_statistic: float
    amplified_pvalue: float
    deamplified_mean_a: float | None = None
    deamplified_mean_b: float | None = None
    deamplified_count_a: int = 0
    deamplified_count_b: int = 0
    deamplified_statistic: float | None = None
    deamplified_pvalue: float | None = None


def group_amplification_magnitude(
    rows_a: Sequence[AmplificationRow],
    rows_b: Sequence[AmplificationRow],
    mode: str = MODE_AUTO,
) -> AmplificationMagnitude:
    """Compare the sizes of amplification effects between two reports.

    Tests whether one group's positively amplified authors are amplified
    more strongly than the other's (and likewise for de-amplified
    authors when both sides have any).
    """
    pos_a = [r.ratio_pct for r in rows_a if r.ratio_pct > 0]
    pos_b = [r.ratio_pct for r in rows_b if r.ratio_pct > 0]
    if not pos_a or not pos_b:
        raise AnalysisError("both row sets need at least one amplified author")
    amp = mann_whitney_u(pos_a, pos_b, mode=mode)
    result = dict(
        amplified_mean_a=math.fsum(pos_a) / len(pos_a),
        amplified_mean_b=math.fsum(pos_b) / len(pos_b),
        amplified_count_a=len(pos_a),
        amplified_count_b=len(pos_b),
        amplified_statistic=amp.statistic,
        amplified_pvalue=amp.pvalue,
    )
    neg_a = [r.ratio_pct for r in rows_a if r.ratio_pct < 0]
    neg_b = [r.ratio_pct for r in rows_b if r.ratio_pct < 0]
    if neg_a and neg_b:
        de = mann_whitney_u(neg_a, neg_b, mode=mode)
        result.update(
            deamplified_mean_a=math.fsum(neg_a) / len(neg_a),
            deamplified_mean_b=math.fsum(neg_b) / len(neg_b),
            deamplified_count_a=len(neg_a),
            deamplified_count_b=len(neg_b),
            deamplified_statistic=de.statistic,
            deamplified_pvalue=de.pvalue,
        )
    return AmplificationMagnitude(**result)
