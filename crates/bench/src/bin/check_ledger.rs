//! The one gate over the figure ledger.
//!
//! `check_ledger <committed-dir> <fresh-dir>` holds every `BENCH_*.json`
//! of the committed directory (the repo's `ledger/`) to the file of the
//! same name a harness run left in the fresh one (`target/ledger/`) by
//! [`drtm_bench::ledger::check`], printing every row. A file that does
//! not load or is missing from the fresh directory, and a committed
//! directory with no ledger in it, fail like a row out of its band.

use std::path::Path;
use std::process::ExitCode;

use drtm_bench::ledger::{check, load};

fn ledgers_in(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut names: Vec<String> = entries
        .filter_map(|e| e.expect("readable directory entry").file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed_dir, fresh_dir] = args.as_slice() else {
        eprintln!("usage: check_ledger <committed-dir> <fresh-dir>");
        return ExitCode::from(2);
    };
    let (committed_dir, fresh_dir) = (Path::new(committed_dir), Path::new(fresh_dir));
    let names = ledgers_in(committed_dir);
    let mut failures = Vec::new();
    if names.is_empty() {
        failures.push(format!("no BENCH_*.json in {}", committed_dir.display()));
    }
    for name in &names {
        println!("{name}");
        match (load(&committed_dir.join(name)), load(&fresh_dir.join(name))) {
            (Ok(committed), Ok(fresh)) => {
                let checked = check(&committed, &fresh);
                checked.lines.iter().for_each(|l| println!("{l}"));
                let recorded = committed.len() - checked.gated;
                println!("  {} gated / {recorded} recorded only", checked.gated);
                failures.extend(checked.failures.iter().map(|f| format!("{name}: {f}")));
            }
            (committed, fresh) => failures.extend(committed.err().into_iter().chain(fresh.err())),
        }
    }
    for f in &failures {
        println!("FAILED  {f}");
    }
    if failures.is_empty() {
        println!("ledger OK: {} figures", names.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
