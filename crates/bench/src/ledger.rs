//! The figure ledger: every number a harness claims, beside the paper's.
//!
//! The only unit is the [`Row`]. [`Ledger::row`] prints a harness's
//! table line and records its measured cells, [`Ledger::write`] puts the
//! rows in `target/ledger/BENCH_<figure>.json`, and [`check`] holds such
//! a file, row for row, to the one committed under `ledger/`.
//!
//! Bands are data, not code: a harness says what it measured, and how
//! tightly a row is held is the committed row's `band`, which
//! [`Ledger::new`] reads back and stamps on the fresh row of the same
//! point — so `cp target/ledger/BENCH_*.json ledger/` re-baselines the
//! values and keeps every band (EXPERIMENTS.md, "Machine-readable
//! baselines": the schema, and how the bands were measured).

use std::fmt::Display;
use std::path::{Path, PathBuf};

/// What a row's `measured` is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Virtual time, or a ratio of virtual times: what the paper plots.
    Virtual,
    /// Host wall time. Depends on the machine, so it is never gated.
    Host,
    /// A counter, or a ratio of counters.
    Count,
}

const KINDS: [(Kind, &str); 3] =
    [(Kind::Virtual, "virtual"), (Kind::Host, "host"), (Kind::Count, "count")];

impl Kind {
    fn name(self) -> &'static str {
        KINDS.iter().find(|(k, _)| *k == self).expect("every kind is named").1
    }
}

/// One measured point of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Bench target the point belongs to (the file suffix).
    pub figure: String,
    /// Name of the point within the figure, unit suffix included.
    pub point: String,
    /// What `measured` is made of.
    pub kind: Kind,
    /// Operations per worker the leg ran: rows measured at different
    /// counts are different experiments and never compare.
    pub ops: u64,
    /// The paper's number for this point, when it gives one.
    pub paper: Option<f64>,
    /// This run's number (NaN when the file said `null`).
    pub measured: f64,
    /// `Some(0.0)`: must equal the committed value. `Some(b)`: within
    /// `b` × the committed value of it. `None`: recorded, not compared.
    pub band: Option<f64>,
}

/// One column of a printed table line; a measured cell is also a row.
#[derive(Debug, Clone)]
pub struct Cell {
    shown: Option<String>,
    value: Option<(String, Kind, f64, Option<f64>)>,
}

/// A column that is only printed (a label, a derived remark).
pub fn text(shown: impl Display) -> Cell {
    Cell { shown: Some(shown.to_string()), value: None }
}

/// A measured column: printed as `shown`, recorded as `point`.
pub fn cell(point: impl Into<String>, kind: Kind, measured: f64, shown: String) -> Cell {
    Cell { shown: Some(shown), value: Some((point.into(), kind, measured, None)) }
}

/// A measured value no table column shows: recorded, not printed.
pub fn quiet(point: impl Into<String>, kind: Kind, measured: f64) -> Cell {
    Cell { shown: None, value: Some((point.into(), kind, measured, None)) }
}

/// A virtual-time throughput column, printed and recorded in M ops/s.
pub fn tput(point: impl Into<String>, per_second: f64) -> Cell {
    cell(point, Kind::Virtual, per_second / 1e6, crate::mops(per_second))
}

impl Cell {
    /// Attaches the paper's number for this point.
    pub fn paper(mut self, paper: impl Into<Option<f64>>) -> Cell {
        if let Some(v) = &mut self.value {
            v.3 = paper.into();
        }
        self
    }
}

/// The rows one harness run records.
#[derive(Debug)]
pub struct Ledger {
    figure: String,
    committed: Vec<Row>,
    rows: Vec<Row>,
}

fn repo_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("the repository this crate was built in")
}

impl Ledger {
    /// An empty ledger for `figure`, with the bands of its committed
    /// `ledger/BENCH_<figure>.json` (a figure without one records only).
    pub fn new(figure: &str) -> Ledger {
        let path = repo_root().join("ledger").join(format!("BENCH_{figure}.json"));
        let committed = if path.exists() { load(&path).expect("committed ledger") } else { vec![] };
        Ledger { figure: figure.to_string(), committed, rows: Vec::new() }
    }

    /// The committed band of `point`, for a harness assertion that holds
    /// two of its own legs to the noise the ledger allows that row.
    pub fn band(&self, point: &str) -> Option<f64> {
        self.committed.iter().find(|r| r.point == point).and_then(|r| r.band)
    }

    /// Prints the shown cells as one aligned table line and records the
    /// measured ones as rows of a leg of `ops` operations per worker.
    pub fn row(&mut self, ops: u64, cells: impl IntoIterator<Item = Cell>) {
        let mut shown = Vec::new();
        for c in cells {
            shown.extend(c.shown);
            let Some((point, kind, measured, paper)) = c.value else { continue };
            let band = self.band(&point);
            let figure = self.figure.clone();
            self.rows.push(Row { figure, point, kind, ops, paper, measured, band });
        }
        if !shown.is_empty() {
            crate::row(&shown);
        }
    }

    /// Writes `target/ledger/BENCH_<figure>.json`.
    pub fn write(&self) {
        let dir = repo_root().join("target/ledger");
        std::fs::create_dir_all(&dir).expect("create target/ledger");
        let path = dir.join(format!("BENCH_{}.json", self.figure));
        std::fs::write(&path, to_json(&self.rows)).expect("write ledger");
        println!("wrote {}", path.display());
    }
}

/// The keys of a row, in the order both the writer and the reader use.
const KEYS: [&str; 7] = ["figure", "point", "kind", "ops", "paper", "measured", "band"];

/// One row per line; a non-finite number is `null`, which [`check`]
/// refuses.
fn to_json(rows: &[Row]) -> String {
    let num = |x: f64| if x.is_finite() { x.to_string() } else { "null".to_string() };
    let opt = |x: Option<f64>| x.map_or("null".to_string(), num);
    let quoted = |s: &str| format!("\"{s}\"");
    let line = |r: &Row| {
        let (figure, point, kind) = (quoted(&r.figure), quoted(&r.point), quoted(r.kind.name()));
        let values =
            [figure, point, kind, r.ops.to_string(), opt(r.paper), num(r.measured), opt(r.band)];
        let fields: Vec<String> =
            KEYS.iter().zip(values).map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    format!("[\n{}\n]\n", rows.iter().map(line).collect::<Vec<_>>().join(",\n"))
}

/// Reads a ledger file; the error names it.
pub fn load(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads what [`to_json`] writes and nothing more general: one `{..}`
/// per line, the keys in [`KEYS`] order, unescaped strings, numbers or
/// `null`. A missing, extra or misplaced key, an unknown kind, a
/// negative band, a `host` row with a band and a point seen twice fail.
fn parse(text: &str) -> Result<Vec<Row>, String> {
    let body = text.trim().strip_prefix('[').and_then(|t| t.strip_suffix(']'));
    let mut rows: Vec<Row> = Vec::new();
    for line in body.ok_or("not a `[..]` array")?.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let row = parse_row(line.strip_suffix(',').unwrap_or(line))
            .map_err(|why| format!("{why} in `{line}`"))?;
        if rows.iter().any(|r| r.figure == row.figure && r.point == row.point) {
            return Err(format!("{}/{} appears twice", row.figure, row.point));
        }
        rows.push(row);
    }
    Ok(rows)
}

fn parse_row(line: &str) -> Result<Row, String> {
    let inner = line.strip_prefix("{\"").and_then(|l| l.strip_suffix('}'));
    let fields: Vec<&str> = inner.ok_or("a row is one `{..}` on a line")?.split(", \"").collect();
    let mut v = [""; KEYS.len()];
    for (i, key) in KEYS.iter().enumerate() {
        let value = fields.get(i).and_then(|f| f.strip_prefix(key)?.strip_prefix("\": "));
        v[i] = value.ok_or(format!("expected `{key}` as key {i} of {}", KEYS.len()))?;
    }
    if fields.len() != KEYS.len() {
        return Err(format!("{} keys where the schema has {}", fields.len(), KEYS.len()));
    }
    let string = |s: &str| {
        let inner = s.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
        let plain = inner.filter(|s| !s.contains(['"', '\\']));
        plain.map(str::to_string).ok_or(format!("`{s}` is not a plain string"))
    };
    let number = |s: &str| match s {
        "null" => Ok(None),
        _ => s.parse::<f64>().map(Some).map_err(|_| format!("`{s}` is not a number or null")),
    };
    let kind = string(v[2])?;
    let row = Row {
        figure: string(v[0])?,
        point: string(v[1])?,
        kind: KINDS.iter().find(|k| k.1 == kind).ok_or(format!("unknown kind `{kind}`"))?.0,
        ops: v[3].parse().map_err(|_| format!("ops `{}` is not a count", v[3]))?,
        paper: number(v[4])?,
        measured: number(v[5])?.unwrap_or(f64::NAN),
        band: number(v[6])?,
    };
    match row.band {
        Some(_) if row.kind == Kind::Host => Err("a host row cannot carry a band".into()),
        Some(b) if !(b.is_finite() && b >= 0.0) => Err(format!("band {b} is not a fraction >= 0")),
        _ => Ok(row),
    }
}

/// What [`check`] found in one file.
#[derive(Debug, Default)]
pub struct Checked {
    /// One printable line per committed row: both values, the paper's.
    pub lines: Vec<String>,
    /// Why the file fails; empty when it passes.
    pub failures: Vec<String>,
    /// Committed rows with a band; the others are recorded only.
    pub gated: usize,
}

/// Holds a fresh run's rows to the committed ones, row for row. It knows
/// no figure and no point: what is compared, and how tightly, is the
/// committed row's `band`. A row on one side only, a different `ops` or
/// `kind`, a number that is not finite, a gated row outside its band and
/// a file that gates nothing all fail; nothing is skipped.
pub fn check(committed: &[Row], fresh: &[Row]) -> Checked {
    let gated = committed.iter().filter(|c| c.band.is_some()).count();
    let mut out = Checked { gated, ..Checked::default() };
    let same = |a: &Row, b: &Row| a.figure == b.figure && a.point == b.point;
    for c in committed {
        let Some(f) = fresh.iter().find(|f| same(c, f)) else {
            out.failures.push(format!("{}: committed, but missing from the fresh run", c.point));
            continue;
        };
        let delta = (f.measured - c.measured) / c.measured.abs().max(f64::MIN_POSITIVE);
        let held = c.band.map_or("recorded only".into(), |b| format!("band {:.1}%", b * 100.0));
        let beside = |p| format!("  paper {p} (measured/paper {:.2})", f.measured / p);
        let paper = c.paper.map_or(String::new(), beside);
        out.lines.push(format!(
            "  {:<34} {:<7} {:>14.6} -> {:>14.6} {:>+8.2}%  {held}{paper}",
            c.point,
            c.kind.name(),
            c.measured,
            f.measured,
            delta * 100.0
        ));
        let failure = if (f.ops, f.kind) != (c.ops, c.kind) {
            let (here, there) = (f.kind.name(), c.kind.name());
            Some(format!("{here} at {} ops here, {there} at {} when committed", f.ops, c.ops))
        } else if !(f.measured.is_finite() && c.measured.is_finite()) {
            Some(format!("is not finite ({} against {})", f.measured, c.measured))
        } else {
            // `band` 0 makes this equality.
            let outside = |b: &f64| (f.measured - c.measured).abs() > b * c.measured.abs();
            let why =
                format!("{} is {:+.2}% from {}: {held}", f.measured, delta * 100.0, c.measured);
            c.band.filter(outside).map(|_| why)
        };
        out.failures.extend(failure.map(|why| format!("{}: {why}", c.point)));
    }
    for f in fresh.iter().filter(|f| !committed.iter().any(|c| same(c, f))) {
        out.failures.push(format!("{}: in the fresh run, but not committed", f.point));
    }
    if out.gated == 0 {
        out.failures.push("no committed row carries a band: this file gates nothing".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(point: &str, kind: Kind, measured: f64, band: Option<f64>) -> Row {
        Row {
            figure: "unit".into(),
            point: point.into(),
            kind,
            ops: 100,
            paper: None,
            measured,
            band,
        }
    }

    fn committed() -> Vec<Row> {
        vec![
            row("tput_mops", Kind::Virtual, 2.0, Some(0.05)),
            row("log_bytes", Kind::Count, 7.0, Some(0.0)),
            row("wall_ms", Kind::Host, 3.5, None),
        ]
    }

    /// The committed rows with one of them changed.
    fn fresh_with(point: &str, change: impl Fn(&mut Row)) -> Vec<Row> {
        let mut rows = committed();
        change(rows.iter_mut().find(|r| r.point == point).expect("a committed point"));
        rows
    }

    fn only_failure(c: &Checked) -> &str {
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        &c.failures[0]
    }

    #[test]
    fn a_run_inside_every_band_passes_and_is_counted() {
        let c = check(&committed(), &fresh_with("tput_mops", |r| r.measured = 2.09));
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert_eq!((c.gated, c.lines.len()), (2, 3));
        // A host row may move freely.
        let c = check(&committed(), &fresh_with("wall_ms", |r| r.measured = 350.0));
        assert!(c.failures.is_empty(), "{:?}", c.failures);
    }

    #[test]
    fn a_virtual_row_outside_its_band_fails_on_either_side() {
        for measured in [2.11, 1.89] {
            let c = check(&committed(), &fresh_with("tput_mops", |r| r.measured = measured));
            assert!(only_failure(&c).contains("band 5.0%"), "{:?}", c.failures);
        }
    }

    #[test]
    fn a_band_of_zero_is_equality() {
        let c = check(&committed(), &fresh_with("log_bytes", |r| r.measured = 8.0));
        assert_eq!(only_failure(&c), "log_bytes: 8 is +14.29% from 7: band 0.0%");
    }

    #[test]
    fn a_row_on_one_side_only_fails() {
        let mut fresh = committed();
        fresh.retain(|r| r.point != "wall_ms");
        let c = check(&committed(), &fresh);
        assert!(only_failure(&c).contains("missing from the fresh run"));

        let mut fresh = committed();
        fresh.push(row("new_point", Kind::Count, 1.0, None));
        let c = check(&committed(), &fresh);
        assert!(only_failure(&c).contains("not committed"));
    }

    #[test]
    fn a_different_operation_count_fails_instead_of_skipping() {
        let c = check(&committed(), &fresh_with("wall_ms", |r| r.ops = 1));
        assert!(only_failure(&c).contains("host at 1 ops here, host at 100 when committed"));
    }

    #[test]
    fn a_number_that_is_not_finite_fails_even_unbanded() {
        let written = to_json(&fresh_with("wall_ms", |r| r.measured = f64::INFINITY));
        assert!(written.contains("\"measured\": null"));
        let c = check(&committed(), &parse(&written).expect("null is loadable"));
        assert!(only_failure(&c).contains("not finite"));
    }

    #[test]
    fn a_file_that_gates_nothing_fails() {
        let rows = vec![row("wall_ms", Kind::Host, 3.5, None)];
        let c = check(&rows, &rows);
        assert!(only_failure(&c).contains("gates nothing"));
    }

    #[test]
    fn loading_rejects_what_the_schema_does_not_allow() {
        let row = |kind: &str, ops: &str, band: &str| {
            format!(
                "{{\"figure\": \"unit\", \"point\": \"p\", \"kind\": \"{kind}\", \"ops\": {ops}, \
                 \"paper\": null, \"measured\": 1, \"band\": {band}}}"
            )
        };
        let file = |rows: &[String]| format!("[\n{}\n]\n", rows.join(",\n"));
        let err = |rows: &[String]| parse(&file(rows)).unwrap_err();
        let good = row("count", "1", "0");
        assert!(parse(&file(&[row("host", "1", "null"), good.replace("\"p\"", "\"q\"")])).is_ok());
        assert!(err(&[row("host", "1", "0.1")]).contains("host row"));
        assert!(err(&[row("virtual", "1", "-0.1")]).contains("not a fraction"));
        assert!(err(&[row("wall", "1", "null")]).contains("unknown kind"));
        assert!(err(&[row("count", "1.5", "0")]).contains("not a count"));
        assert!(err(&[row("count", "null", "0")]).contains("not a count"));
        assert!(err(&[row("count", "1", "x")]).contains("not a number"));
        assert!(err(&[good.clone(), good.clone()]).contains("appears twice"));
        assert!(err(&[good.replace("\"band\"", "\"bond\"")]).contains("expected `band`"));
        assert!(err(&[good.replace(", \"band\": 0", "")]).contains("expected `band`"));
        assert!(err(&[good.replace("}", ", \"more\": 1}")]).contains("8 keys"));
        assert!(err(&[good.replace("\"p\"", "\"p\\n\"")]).contains("plain string"));
        assert!(err(&[good.replace("{", "")]).contains("one `{..}`"));
        assert!(parse(&format!("{} x", file(&[good]))).unwrap_err().contains("array"));
        assert!(parse("").is_err() && parse("[").is_err());
    }

    #[test]
    fn rows_survive_the_file_to_the_last_digit() {
        let mut rows = committed();
        rows[0].paper = Some(3.67);
        rows[0].measured = 2.884_411_240_548_137;
        assert_eq!(parse(&to_json(&rows)).expect("own output loads"), rows);
        assert_eq!(parse(&to_json(&[])).expect("no rows is a file too"), vec![]);
    }

    #[test]
    fn a_table_line_records_its_measured_cells_with_the_committed_bands() {
        let mut l = Ledger::new("no_such_figure");
        l.committed = committed();
        assert_eq!(l.band("tput_mops"), Some(0.05));
        l.row(
            100,
            [
                text(6),
                tput("tput_mops", 2_500_000.0).paper(3.67),
                quiet("wall_ms", Kind::Host, 9.0),
                quiet("unbanded", Kind::Count, 1.0),
            ],
        );
        let got: Vec<_> = l.rows.iter().map(|r| (r.point.as_str(), r.measured, r.band)).collect();
        assert_eq!(
            got,
            [("tput_mops", 2.5, Some(0.05)), ("wall_ms", 9.0, None), ("unbanded", 1.0, None)]
        );
        let first = &l.rows[0];
        assert_eq!(
            (first.paper, first.ops, first.figure.as_str()),
            (Some(3.67), 100, "no_such_figure")
        );
    }
}
