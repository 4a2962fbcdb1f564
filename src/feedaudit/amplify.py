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
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import repeat
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .metrics import ExposureTable, _stack, group_exposures
from .model import AuthorId, LEAN_UNKNOWN
from .mwu import MODE_AUTO, _mann_whitney_entries, mann_whitney_u


def amplification_ratio(
    partisan_mean: float | np.ndarray, baseline_mean: float | np.ndarray
) -> float | np.ndarray:
    """Smoothed percent amplification of a partisan mean over a baseline;
    element-wise when given arrays of means."""
    if np.any(partisan_mean < 0) or np.any(baseline_mean < 0):
        raise AnalysisError("mean exposures must be non-negative")
    return ((partisan_mean + 1.0) / (baseline_mean + 1.0) - 1.0) * 100.0


# A NamedTuple, so that a report makes its rows with ``tuple.__new__``,
# without a Python call per row. The dataclass decorator over it makes
# ``dataclasses.replace``, ``asdict`` and ``fields`` work on rows and
# assignment raise FrozenInstanceError. Repr, equality, hashing and
# ordering are the tuple's: a row equals a plain tuple of its fields,
# rows sort field by field, and a row unpacks into its eight fields.
@dataclass(frozen=True, init=False, repr=False, eq=False)
class AmplificationRow(NamedTuple):
    """Amplification result for one author."""

    author_id: AuthorId
    lean_label: str
    partisan_mean: float
    baseline_mean: float
    ratio_pct: float
    statistic: float
    pvalue: float
    significant: bool


# The decorator takes each field's tuple accessor for its default; every
# field is required, as ``fields`` reports it.
for _field in fields(AmplificationRow):
    _field.default = MISSING


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

    The tables are stacked once, with their authors in id order, so a
    stable sort of values in that order breaks ties by id. Group means
    come from ``group_exposures``, and each candidate's rank test from
    its non-zero entries in the stack: the partisan tables' entries are
    sample A, the baseline's sample B, and every monitor without an
    entry, or with an explicit 0.0, counts exposure 0.
    """
    if top < 1:
        raise ConfigError(f"top must be >= 1, got {top}")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if len(partisan_tables) < 2 or len(baseline_tables) < 2:
        raise DataError("need at least two monitors per group")

    n_part = len(partisan_tables)
    n_base = len(baseline_tables)
    tables = [*partisan_tables, *baseline_tables]
    authors, positions, values, bounds = _stack(tables, by_id=True)
    partisan_means, partisan_seen = group_exposures(positions, values, bounds[: n_part + 1], len(authors))
    baseline_means, baseline_seen = group_exposures(positions, values, bounds[n_part:], len(authors))
    pooled = (partisan_means * n_part + baseline_means * n_base) / (n_part + n_base)
    # Candidates in id order, as the authors are.
    candidates = np.sort(np.argsort(-pooled, kind="stable")[:top])
    # The tests take each candidate's non-zero entries straight from the
    # stack: an entry's author position maps to its candidate's row.
    row = np.full(len(authors), -1, dtype=np.intp)
    row[candidates] = np.arange(len(candidates))
    row = row[positions]
    tested = np.flatnonzero((row >= 0) & (values != 0.0))
    statistics, pvalues, _ = _mann_whitney_entries(
        row[tested], values[tested], tested < bounds[n_part], len(candidates), n_part, n_base, mode
    )
    ratios = amplification_ratio(partisan_means[candidates], baseline_means[candidates])
    order = np.argsort(-ratios, kind="stable")
    ranked = candidates[order]
    author_ids = list(map(authors.__getitem__, ranked.tolist()))
    # An author a group never saw gets the float 0.0 as that group's
    # mean, a seen one its numpy mean: the scalar types show in a row's
    # repr, which callers digest. Iterating an array yields its numpy
    # scalars.
    p_means = list(partisan_means[ranked])
    b_means = list(baseline_means[ranked])
    for means, seen in ((p_means, partisan_seen[ranked]), (b_means, baseline_seen[ranked])):
        for i in np.flatnonzero(~seen).tolist():
            means[i] = 0.0
    pvalues = pvalues[order]
    columns = (
        author_ids,
        map((leans or {}).get, author_ids, repeat(LEAN_UNKNOWN)),
        p_means,
        b_means,
        list(ratios[order]),
        statistics[order].tolist(),
        pvalues.tolist(),
        (pvalues < alpha).tolist(),
    )
    # tuple.__new__ makes each row from its fields without a Python call.
    return tuple(map(partial(tuple.__new__, AmplificationRow), zip(*columns)))


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
    ratios_a = np.array([r.ratio_pct for r in rows_a], dtype=np.float64)
    ratios_b = np.array([r.ratio_pct for r in rows_b], dtype=np.float64)
    pos_a, pos_b = ratios_a[ratios_a > 0], ratios_b[ratios_b > 0]
    if not len(pos_a) or not len(pos_b):
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
    neg_a, neg_b = ratios_a[ratios_a < 0], ratios_b[ratios_b < 0]
    if len(neg_a) and len(neg_b):
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
