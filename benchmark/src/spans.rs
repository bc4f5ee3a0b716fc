//! Spans recorded by the traced run, at the boundaries where the
//! benchmark's own code calls into the system:
//! `rep` ▸ `setup` / `warmup` / `measure` ▸ one `op` per transaction (or
//! per batch of KV gets). They stay in memory until the run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Host times are ns since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 for a `rep`).
    pub parent: u64,
    /// `rep`, `setup`, `warmup`, `measure` or `op`.
    pub name: &'static str,
    /// Transaction label of an `op`; empty otherwise.
    pub label: &'static str,
    /// Per-operation id: `worker << 32 | index`, shared by every span of
    /// one operation (today an operation has one span; spans inside the
    /// library are a later change). 0 for structural spans.
    pub op: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Virtual ns charged while the span was open (0 where the span
    /// covers several threads and has no single meter).
    pub vt_ns: u64,
}

/// What one logical worker (or KV client) records about one operation;
/// ids and parents are filled in when the measured window closes.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub label: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub vt_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a structural span now and returns its id.
    pub fn open(&self, parent: u64, name: &'static str) -> u64 {
        let host_start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no panic while the span list is locked");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            label: "",
            op: 0,
            host_start_ns,
            host_end_ns: 0,
            vt_ns: 0,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&self, id: u64, vt_ns: u64) {
        let host_end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no panic while the span list is locked");
        let s = &mut spans[id as usize - 1];
        s.host_end_ns = host_end_ns;
        s.vt_ns = vt_ns;
    }

    /// Files the `op` spans of one worker under `parent`.
    pub fn ops(&self, parent: u64, worker: usize, records: &[OpRecord]) {
        let mut spans = self.spans.lock().expect("no panic while the span list is locked");
        for (i, r) in records.iter().enumerate() {
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent,
                name: "op",
                label: r.label,
                op: (worker as u64) << 32 | i as u64,
                host_start_ns: r.host_start_ns,
                host_end_ns: r.host_end_ns,
                vt_ns: r.vt_ns,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no panic while the span list is locked")
    }
}

/// Writes spans as one JSON document: the column names, the string
/// table `names` that the `name` and `label` columns index, then one
/// row per span (a million `op` rows stay a few tens of MB this way).
pub fn write_trace(
    out: &mut impl Write,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut names: Vec<&str> = Vec::new();
    let mut index = |s: &'static str| {
        names.iter().position(|n| *n == s).unwrap_or_else(|| {
            names.push(s);
            names.len() - 1
        })
    };
    let rows: Vec<(usize, usize, &Span)> =
        spans.iter().map(|s| (index(s.name), index(s.label), s)).collect();
    writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
    writeln!(
        out,
        " \"columns\": [\"id\", \"parent\", \"name\", \"label\", \"op\", \
         \"host_start_ns\", \"host_end_ns\", \"vt_ns\"],"
    )?;
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(out, " \"names\": [{}],", quoted.join(", "))?;
    writeln!(out, " \"spans\": [")?;
    for (i, (name, label, s)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "[{},{},{name},{label},{},{},{},{}]{sep}",
            s.id, s.parent, s.op, s.host_start_ns, s.host_end_ns, s.vt_ns
        )?;
    }
    writeln!(out, " ]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_and_the_trace_file_parses() {
        let t = Tracer::new();
        let rep = t.open(0, "rep");
        let measure = t.open(rep, "measure");
        let rec = |label| OpRecord { label, host_start_ns: 1, host_end_ns: 2, vt_ns: 3 };
        t.ops(measure, 4, &[rec("payment"), rec("new_order")]);
        t.close(measure, 0);
        t.close(rep, 0);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].name, spans[0].parent), ("rep", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("measure", rep));
        assert_eq!((spans[3].label, spans[3].parent), ("new_order", measure));
        assert_eq!(spans[3].op, 4 << 32 | 1);
        assert!(spans[0].host_end_ns >= spans[1].host_end_ns && spans[1].host_end_ns > 0);

        let mut buf = Vec::new();
        write_trace(&mut buf, "tpcc_stdmix", 7, &spans).unwrap();
        let doc = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let rows = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 4);
        let names = doc.get("names").and_then(Json::as_array).unwrap();
        let label = rows[2].as_array().unwrap()[3].as_f64().unwrap() as usize;
        assert_eq!(names[label].as_str(), Some("payment"));
        assert_eq!(doc.get("columns").and_then(Json::as_array).unwrap().len(), 8);
    }
}
