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
from .metrics import ExposureTable, group_mean_exposure, top_k
from .model import AuthorId, LEAN_UNKNOWN
from .mwu import MODE_AUTO, mann_whitney_u, mann_whitney_u_many


def amplification_ratio(partisan_mean: float, baseline_mean: float) -> float:
    """Smoothed percent amplification of a partisan mean over a baseline."""
    if partisan_mean < 0 or baseline_mean < 0:
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


def _exposure_matrix(
    tables: Sequence[ExposureTable], index: Mapping[AuthorId, int]
) -> np.ndarray:
    """(authors x monitors) exposures of the authors in ``index``, row
    ``index[author]``; a monitor that never saw an author contributes 0."""
    out = np.zeros((len(index), len(tables)))
    for j, t in enumerate(tables):
        for author, exposure in t.entries.items():
            i = index.get(author)
            if i is not None:
                out[i, j] = exposure
    return out


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
    partisan_means = group_mean_exposure(partisan_tables)
    baseline_means = group_mean_exposure(baseline_tables)
    pooled = {
        a: (partisan_means.get(a, 0.0) * n_part + baseline_means.get(a, 0.0) * n_base)
        / (n_part + n_base)
        for a in set(partisan_means) | set(baseline_means)
    }
    candidates = {author: i for i, (author, _) in enumerate(top_k(pooled, top))}
    tests = mann_whitney_u_many(
        _exposure_matrix(partisan_tables, candidates),
        _exposure_matrix(baseline_tables, candidates),
        mode=mode,
    )
    rows = []
    for author, res in zip(candidates, tests):
        p_mean = partisan_means.get(author, 0.0)
        b_mean = baseline_means.get(author, 0.0)
        rows.append(
            AmplificationRow(
                author_id=author,
                lean_label=(leans or {}).get(author, LEAN_UNKNOWN),
                partisan_mean=p_mean,
                baseline_mean=b_mean,
                ratio_pct=amplification_ratio(p_mean, b_mean),
                statistic=res.statistic,
                pvalue=res.pvalue,
                significant=res.pvalue < alpha,
            )
        )
    rows.sort(key=lambda r: (-r.ratio_pct, r.author_id))
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
