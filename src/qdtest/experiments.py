"""Seeded multi-trial harness and report serialization.

A tester's outcome distribution is fully determined by its plan: the
encoding unitary and the phase-register evolution are deterministic, and
only the final phase measurement is random.  Trial i of :func:`run_trials`
measures that phase from one uniform draw, the first ``random()`` of
``numpy.random.default_rng([seed, i])``.
:func:`qdtest.seeding.trial_uniforms` computes those draws in bulk, bit for
bit, with numpy arrays and no ``numpy.random``, and
:func:`qdtest.testers.sample_plan` turns them into a
:class:`~qdtest.testers.Trials` in one pass: one verdict per measured phase
plus an index array that gives each trial's verdict.  Verdict and estimator
reports are both built from the Trials, and never from one Python object
per trial.

Reports are dicts with a pinned ``schema_version``.  A trial report's rows
are a read-only :class:`TrialRows`: one outcome per distinct verdict of the
Trials (at most M of them) plus the Trials' index, and row i is outcome
``index[i]`` with ``trial`` i; summary frequencies and the means of the
float columns are taken on the index array.  Every run of a plan has the
same cost, so the query columns hold the plan's one per-run cost, computed
once per report, and their means are that cost.  The CSV and JSON encoders
render each distinct outcome once and splice each trial's number into its
text; a plain list of rows, as in a sweep report, is the case where every
row is its own outcome.  Each format's text comes from one generator of
chunks: its header, its rows in blocks of ``_ROW_BLOCK``, and its summary.
:func:`dump_report`, the one report writer, streams the chunks to a file or
to standard output, so a report's text is never held whole or encoded at
once.  Both serializations are byte-stable for a fixed seed (floats via
``repr``, keys sorted, row order fixed by trial index).  A run's peak
memory therefore grows by a few tens of bytes per trial, not by the size of
its report (``_PEAK_BYTES_PER_TRIAL``).
"""
from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator, Sequence
from itertools import islice
from pathlib import Path

import numpy as np

from . import statevec
from .seeding import trial_uniforms
from .testers import AEPlan, Trials, sample_plan

SCHEMA_VERSION = 1

# Peak bytes per run of a report's trials: each run's uniform, phase and
# index entry, and the per-trial transients of the vote, the means and the
# writer's list of outcome numbers; the report text is streamed in blocks of
# _ROW_BLOCK rows and does not grow with the runs.  Peak RSS at 200,000 runs
# less that at 20,000, per run, measured 20 for `estimate --gen l2-pair
# --n 4 --eps 0.5` as JSON, 26 as CSV, and 39 for `test-kwise --n 4 --k 2
# --eps 0.3 --gen spike:1,2:0.6 --repeats 3`; 64 is the largest plus 60%.
_PEAK_BYTES_PER_TRIAL = 64

ORACLE_QUERY_COLUMNS = ("queries_forward", "queries_inverse", "queries_ctrl")


def oracle_query_totals(queries: dict) -> dict[str, int]:
    """Aggregate ledger snapshot into forward / inverse / controlled totals.

    A plan's ledger holds only oracle labels, so the columns count queries to
    the underlying distribution oracles.
    """
    fwd = inv = ctrl = 0
    for per in queries.values():
        fwd += per.get("forward", 0)
        inv += per.get("inverse", 0)
        ctrl += per.get("ctrl_forward", 0) + per.get("ctrl_inverse", 0)
    return {"queries_forward": fwd, "queries_inverse": inv, "queries_ctrl": ctrl}


def require_trial_memory(runs: int) -> None:
    """Raise MemoryLimitError if ``runs`` trials and their report would not
    fit in memory."""
    statevec.require_bytes(runs * _PEAK_BYTES_PER_TRIAL, f"a run of {runs} trials")


def run_trials(plan: AEPlan, trials: int, seed: int) -> Trials:
    """Independent runs of one plan; run i measures its phase from the first
    ``random()`` of ``numpy.random.default_rng([seed, i])``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    return sample_plan(plan, trial_uniforms(seed, trials))


class TrialRows(Sequence):
    """The rows of a trial report, dictionary-encoded.

    ``outcomes[k]`` holds every column of distinct outcome k but ``trial``,
    and ``index[i]`` (an intp array) is the outcome of trial i, so row i is
    ``{"trial": i, **outcomes[index[i]]}``.  The outcomes and the index are
    those of the report's :class:`~qdtest.testers.Trials`: a plan's runs have
    at most M outcomes, one per measured phase, so a report of many trials
    holds few outcomes.  Rows are read-only and built on access.
    """

    __slots__ = ("outcomes", "index")

    def __init__(self, outcomes: list[dict], index: np.ndarray):
        self.outcomes, self.index = outcomes, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> dict:
        i = range(len(self))[i]
        return {"trial": i, **self.outcomes[self.index[i]]}

    def mean(self, column: str) -> float:
        """Mean of a float column over the trials: ``sum(row[column] for row
        in self) / len(self)`` with the floats added one trial after the
        other, as Python's ``sum`` adds them (through 3.11); its sum starts
        from the integer 0, so a sum of negative zeros is +0.0."""
        per_trial = np.array([outcome[column] for outcome in self.outcomes],
                             dtype=np.float64)[self.index]
        total = float(np.add.accumulate(per_trial, out=per_trial)[-1]) + 0.0
        return total / len(self.index)


def _trial_report(command: str, params: dict, trials: Trials, fields, summary,
                  extra: dict) -> dict:
    """The report of ``trials``: one row per run, dictionary-encoded over the
    runs' distinct verdicts, each verdict's ``fields(v)`` built once and
    followed by the oracle-query totals of the plan's one per-run cost.  The
    summary is ``summary(rows)``, then the mean of each total (every run
    has that cost, so the mean is the total), then ``extra``."""
    totals = oracle_query_totals(trials[0].queries)
    rows = TrialRows([{**fields(v), **totals} for v in trials.verdicts], trials.index)
    means = {f"mean_{column}": float(total) for column, total in totals.items()}
    return {"schema_version": SCHEMA_VERSION, "command": command, "params": params,
            "rows": rows, "summary": {**summary(rows), **means, **extra}}


def verdict_report(command: str, params: dict, trials: Trials,
                   extra_summary: dict) -> dict:
    frequencies = trials.label_counts()
    n = len(trials)
    return _trial_report(
        command, params, trials,
        lambda v: {"verdict": v.verdict, "statistic": v.statistic},
        lambda rows: {"trials": n,
                      "frequencies": {k: frequencies[k] / n for k in sorted(frequencies)},
                      "t": trials[0].t, "threshold": trials[0].threshold,
                      "mean_statistic": rows.mean("statistic")},
        extra_summary)


def estimate_report(command: str, params: dict, trials: Trials,
                    true_value: float) -> dict:
    """Estimator report: each row's estimate is 2 sqrt(statistic)."""
    def fields(v):
        estimate = 2.0 * math.sqrt(v.statistic)
        return {"estimate": estimate, "statistic": v.statistic,
                "true_value": true_value, "error": abs(estimate - true_value)}

    return _trial_report(
        command, params, trials, fields,
        lambda rows: {"trials": len(rows), "t": trials[0].t,
                      "mean_estimate": rows.mean("estimate"),
                      "true_value": true_value, "mean_error": rows.mean("error")},
        {})


def sweep_report(command: str, params: dict, points: list[dict]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": params, "rows": points,
            "summary": {"grid_points": len(points)}}


# --- serialization ---------------------------------------------------------------

# Rows per text block of the report writers; a block of the 20,000-trial
# estimate report is about 256 KB of text.
_ROW_BLOCK = 1024


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_blocks(rows: Sequence[dict], render, key: str, sep: str) -> Iterator[str]:
    """``sep.join(render(row) for row in rows)`` in blocks of ``_ROW_BLOCK``
    rows, each block after the first led by ``sep``; each distinct outcome is
    rendered once.

    Each outcome of :class:`TrialRows` is rendered with trial number -1, and
    its text is split at the first ``key + "-1"``, where ``key`` is the text
    that precedes the number; each trial's own number goes between the two
    halves.  A plain list of rows is the degenerate case: every row is its
    own outcome, rendered whole, with no number to splice in.
    """
    if isinstance(rows, TrialRows):
        split = (render({"trial": -1, **o}).partition(key + "-1") for o in rows.outcomes)
        parts = [(head + key, tail) for head, _, tail in split]
        texts = (parts[k][0] + str(i) + parts[k][1]
                 for i, k in enumerate(rows.index.tolist()))
    else:
        texts = map(render, rows)
    for start in range(0, len(rows), _ROW_BLOCK):
        block = sep.join(islice(texts, _ROW_BLOCK))
        yield sep + block if start else block


def _csv_chunks(report: dict) -> Iterator[str]:
    """The report's CSV text in chunks: header, one line per row, then a
    summary row.

    ``trial`` is the first column of a trial report, so its number is the
    leading ``-1`` of each outcome's line.
    """
    rows = report["rows"]
    columns = list(rows[0]) if rows else []
    yield (f"# schema_version={report['schema_version']} command={report['command']}\n"
           + ",".join(columns) + "\n")
    yield from _row_blocks(rows, lambda row: ",".join(_fmt(row.get(c, "")) for c in columns),
                           "", "\n")
    summary = report["summary"]
    pairs = []
    for key in summary:
        val = summary[key]
        if isinstance(val, dict):
            pairs.extend(f"{key}.{k}={_fmt(v)}" for k, v in val.items())
        else:
            pairs.append(f"{key}={_fmt(val)}")
    yield ("\n" if rows else "") + "summary," + ";".join(pairs) + "\n"


def _json_chunks(report: dict) -> Iterator[str]:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` in chunks,
    with the rows read as a sequence (:class:`TrialRows` or a plain list).

    CPython encodes in C only without ``indent``.  So each distinct outcome,
    a non-empty flat dict, goes through the C encoder once, with an item
    separator that puts each key on its own line at the rows' depth; each
    trial's number is spliced into the text of its outcome
    (:func:`_row_blocks`), and the blocks of rows go between the two halves
    of the indented encoding of the rest.  A JSON string holds no raw quote
    or newline, so ``"trial": -1`` occurs once in an outcome's text, and the
    line ``"rows": []`` once at the top level.
    """
    text = json.dumps({**report, "rows": []}, sort_keys=True, indent=2) + "\n"
    if not report["rows"]:
        yield text
        return
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
    head, _, tail = text.partition('\n  "rows": []')
    yield head + '\n  "rows": [\n'
    yield from _row_blocks(report["rows"],
                           lambda row: "    {\n      " + encode(row)[1:-1] + "\n    }",
                           '"trial": ', ",\n")
    yield "\n  ]" + tail


def dump_report(report: dict, path: str | Path | None, fmt: str) -> None:
    """Write the report as ``fmt`` (``"csv"`` or ``"json"``) to ``path``, or
    to standard output when ``path`` is None.

    The text goes out one chunk at a time, a block of ``_ROW_BLOCK`` rows at
    most, so the whole text is never held or encoded at once
    (:func:`_csv_chunks`, :func:`_json_chunks`).  A closed standard output
    raises ``OSError``, as a file that cannot be written does.
    """
    chunks = _csv_chunks(report) if fmt == "csv" else _json_chunks(report)
    if path is None:
        if sys.stdout is None:  # the process started with file descriptor 1 closed
            raise OSError("standard output is closed")
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)
