"""The cell rules io.FORMATS declares, as cases for the tests: the rules each
column of a file a stage reads must hold, the spellings that break each rule,
and those at its edge that keep it."""

import numpy as np

from heavecast import cli, io

# each table file a stage reads, by its template, and the first stage that reads it
READERS = {
    template: next(stage for stage, (read, _) in cli.STAGE_FILES.items() if template in read)
    for template in io.FORMATS if any(template in read for read, _ in cli.STAGE_FILES.values())
}
# the rules of each column of each file a stage reads, "name rule ...", as io.FORMATS declares them: the
# tests' own statement of them, so that a rule dropped from the table still has its cases, which then fail
RULES = {
    cli.RAO: ("freq_hz finite positive rad increasing", "amplitude nonnegative"),
    cli.SPECTRA: ("timestamp_utc", "freq_hz finite positive rad", "dir_deg finite",
                  "density_m2_s_per_deg nonnegative per_rad"),
    cli.MEASUREMENTS: ("timestamp_utc", "sig_heave_m only_where:valid nonnegative", "valid"),
    cli.ISSUES: ("issue_time_utc constant",
                 "valid_time_utc hours_after:issue_time_utc not_before:issue_time_utc hourly", "sig_heave_m nonnegative"),
    cli.DATASET: ("valid_time_utc later", "x_m finite", "y_m finite", "issue_time_utc",
                  "post_gap_flag gaps:valid_time_utc"),
    cli.SAMPLES: ("chain", "* finite"),
    cli.PREDICTIONS: ("valid_time_utc", "mean_m finite", "p05_m finite", "p50_m finite", "p95_m finite",
                      "crps_m nonnegative"),
}
# the rules that hold a row to the row before, which each file's first row keeps
AFTER_THE_FIRST = {"later", "increasing", "constant", "hourly"}


def out_name(template: str) -> str:
    """The out_dir name of a template at horizon 0, for the hybrid model, the first issue file for the issues."""
    return template.format(h=0, model="hybrid").format(i=0)


def _spec(template: str, column: str) -> list[str]:
    """The io.FORMATS entry of column in template's file, split: name, kind, format and rules."""
    return next(spec.split() for spec in io.FORMATS[template] if spec.split()[0] in (column, "*"))


def rule_cases() -> list[tuple[str, str, str, str]]:
    """(template, column, kind, rule) of each rule RULES gives each column of a
    file a stage reads, with its argument, and ("parse") of the column's kind
    itself, the kind as io.FORMATS declares it; the column * stands for each
    column after those the table names."""
    return [(template, name, _spec(template, name)[1], rule)
            for template, columns in RULES.items() for name, *rules in map(str.split, columns)
            for rule in ["parse", *rules]]


def must_be(template: str, column: str, rule: str) -> str:
    """What a refusal of a cell of column that breaks rule ("parse": no value of its kind) says it must be."""
    _, kind, fmt, *_ = _spec(template, column)
    if rule != "parse":
        name, _, other = rule.partition(":")
        return io._RULES[name][0].format(other)
    return " or ".join(io._FLAGS[fmt]) if kind == "flag" else {"time": "a time", "integer": "an integer"}.get(
        kind, "a number")


def _time(cell: str, hours: float) -> str:
    """The time cell spells, moved by hours, as a writer spells it."""
    return str(np.datetime64(cell.strip().removesuffix("Z"), "s") + int(hours * 3600) * np.timedelta64(1, "s"))


def breaking_cells(kind: str, rule: str, cells: list[str], row: int, other: list[str] | None) -> list[str]:
    """Cells for data row `row` (from 1) of a column whose cells are cells,
    each of which breaks rule there and no rule checked before it; other
    holds the cells of the column the rule names. For "parse", cells that are
    no value of kind; only_where refuses no cell, so it has none."""
    name = rule.partition(":")[0]
    before = cells[row - 2] if row > 1 else None
    if name == "parse" and kind == "flag":
        # words that are no flag, and the spellings of each flag format the column's cells are not in
        spelled = {cell.strip().lower() for cell in cells}
        return ["yes", "NO", "ture", "2", "nan", "", *(s for f in io._FLAGS.values() if not spelled <= set(f) for s in f)]
    if name == "parse":
        return {"time": ["now", "2024-13-01", "2024-06", ""],
                "integer": ["x", "1.5", "1e3", "99999999999999999999999", ""]}.get(kind, ["x", "", "1.5x", "true"])
    if name in ("later", "hourly"):
        return [before, _time(before, -1 / 3600 if name == "later" else 2)]
    if name == "increasing":
        return [before, repr(float(before) / 2)]
    if name == "constant":
        return ["2000-01-01T00:00:00", _time(cells[0], 6)]
    if name == "hours_after":
        return ["2000-01-01T00:30:00", _time(other[row - 1], 1.5), _time(other[row - 1], 1 / 3600)]
    if name == "not_before":
        return ["2000-01-01T00:00:00", _time(other[row - 1], -1)]
    if name == "gaps":
        return [{"0": "1", "1": "0"}[cells[row - 1].strip()]]  # the other flag
    return {"finite": ["nan", "NaN", "inf", "-inf", "1e999", "-1e999"],
            "nonnegative": ["-1", "-0.5", "-1e-300", "-inf", "inf", "nan", "1e999"],
            "positive": ["0", "-0", "0.0", "-0.1", "-1e-300"],
            # past the largest float once converted, and past it without the factor of the conversion too
            "rad": ["1e308", "2.87e307"], "per_rad": ["1e308", "1.98e307"], "only_where": []}[name]


def keeping_cells(kind: str, rule: str, cells: list[str], row: int, other: list[str] | None) -> list[str]:
    """Cells for data row `row` of a column whose cells are cells, at the edge
    of rule, that keep it and every other rule of the column: for "parse",
    other spellings of the row's value. finite, rad and gaps have no edge a
    reader builds its values from, and only_where reads no cell where its flag
    is false, so any cell is kept there."""
    name = rule.partition(":")[0]
    cell = cells[row - 1].strip()
    if name == "parse":
        if kind == "time":
            return [cell + "Z", cell.replace("T", " ")[:-3]]
        if kind == "flag":
            return [cell.upper(), cell.title()] if cell.isalpha() else []
        if kind == "integer":
            return [f"+{cell}", f"0{cell}"]
        return [f"{float(cell):+.17e}", f"{float(cell):.17G}"]
    if name == "later":
        return [_time(cells[row - 2], 1 / 3600)]
    if name == "increasing":
        return [repr(float(np.nextafter(float(cells[row - 2]), np.inf)))]
    if name in ("constant", "hours_after", "hourly"):
        return [cell + "Z", cell.replace("T", " ")[:-6]]
    if name == "not_before":
        return [other[row - 1].strip() + "Z"]
    return {"nonnegative": ["0", "-0", "0.0"], "positive": ["5e-324", "1e-300"], "per_rad": ["1.97e307"],
            "only_where": ["x", "", "-1", "inf"], "finite": [], "rad": [], "gaps": []}[name]


def spelled_rows(rule: str, rows: int, flags: list[str] | None) -> list[int]:
    """The data rows, from 1, of a file of rows rows where the reader-level
    cases spell rule: the first for a rule on a file's first row or on a
    value's lower edge, the first whose flag is false for only_where, every
    row for gaps (a file's first row, a row an hour after the row before and
    one after a gap), else the last."""
    name = rule.partition(":")[0]
    if name in ("not_before", "positive"):
        return [1]
    if name == "only_where":
        return [1 + [cell.strip().lower() for cell in flags].index("false")]
    return list(range(1, rows + 1)) if name == "gaps" else [rows]
