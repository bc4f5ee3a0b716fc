//! The repo benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! drtm-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!     one workload in this process; the last stdout line is the result
//! drtm-benchmark [--seed N] [--seconds S] [--quick] [--e2e-only] [--out FILE]
//!     every workload, each in a process of its own, untraced then traced
//! drtm-benchmark --compare FILE FILE [FILE...]
//!     the A/A check over result files of the second form
//! ```

mod json;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use layers::Metric;
use spans::Tracer;
use stats::{quartile_spread, summarize, vt_tput, within_bound, worsening, Better, Dist, Summary};
use workloads::{RepResult, Workload};

/// Fresh repetitions of an untraced run; their measured windows add up
/// to about `--seconds`.
const REPS: usize = 5;
/// A traced run alternates this many untraced and traced repetitions of
/// the same size, so tracing overhead is measured inside one process.
const TRACE_PAIRS: usize = 2;
const DEFAULT_SECONDS: u64 = 20;
/// The paper's standard-mix TPC-C throughput on 6 machines × 8 threads
/// (§7.2), carried in the output beside `vt_tput` of `tpcc_stdmix`.
const PAPER_TPCC_STDMIX_TPS: f64 = 3.67e6;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json`'s order.
const END_TO_END: [(&str, &str); 6] = [
    ("vt_tput", "1/s"),
    ("vt_p50_us", "us"),
    ("vt_p999_us", "us"),
    ("host_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    e2e_only: bool,
    out: Option<PathBuf>,
    compare: Vec<PathBuf>,
    /// The benchmark's own directory (`run.sh` passes it).
    dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        e2e_only: false,
        out: None,
        compare: Vec::new(),
        dir: PathBuf::from("benchmark"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a number"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => a.trace = number(value()?)? != 0,
            "--quick" => a.quick = true,
            "--e2e-only" => a.e2e_only = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--dir" => a.dir = PathBuf::from(value()?),
            "--compare" => a.compare = it.by_ref().map(PathBuf::from).collect(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drtm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if !args.compare.is_empty() {
        compare(&args)
    } else if let Some(name) = &args.workload {
        match Workload::parse(name) {
            Some(w) => run_one(w, &args),
            None => Err(format!("unknown workload {name:?}")),
        }
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("drtm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

/// Per-repetition seed: every repetition draws other inputs, and the
/// untraced and traced repetition of one pair draw the same.
fn rep_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set of this process so far. The run reports it as of
/// the end of the first repetition: what later repetitions add on top is
/// heap the allocator kept from torn-down deployments, which depends on
/// the repetition count and on timing, not on the system.
fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

fn host_ns_per_op(r: &RepResult) -> f64 {
    r.measure_host_ns as f64 / r.committed.max(1) as f64
}

/// A percentile, in virtual µs, of the pooled latency samples of `reps`.
/// `strict` enforces the ten-samples-beyond rule (`--quick` does not).
fn pooled_percentile_us(reps: &[&RepResult], q: f64, strict: bool) -> Result<f64, String> {
    let pooled = Dist::merge(reps.iter().map(|r| &r.latency));
    let ns = if strict { pooled.percentile_ns(q)? } else { pooled.quantile_ns(q) };
    Ok(ns / 1e3)
}

/// The end-to-end metrics of the untraced repetitions, each with the
/// spread of the per-repetition values it is the median of (latencies
/// pool the samples of all repetitions and have no spread).
fn end_to_end(
    reps: &[&RepResult],
    first_rep_peak_rss_mb: f64,
    strict: bool,
) -> Result<Vec<(Metric, Option<Summary>)>, String> {
    let per_rep = |f: &dyn Fn(&RepResult) -> f64| -> Summary {
        summarize(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let percentile_us = |q: f64| pooled_percentile_us(reps, q, strict);
    let tput = per_rep(&|r| vt_tput(r.committed, r.workers, r.sum_vtime_ns));
    let host = per_rep(&host_ns_per_op);
    let setup = per_rep(&|r| r.setup_s);
    let values = [
        (tput.median, Some(tput)),
        (percentile_us(0.5)?, None),
        (percentile_us(0.999)?, None),
        (host.median, Some(host)),
        (setup.median, Some(setup)),
        (first_rep_peak_rss_mb, None),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, spread))| (Metric::new(name, value, unit), spread))
        .collect())
}

/// The per-layer metrics of a traced run.
fn per_layer(untraced: &[&RepResult], traced: &[&RepResult]) -> Vec<Metric> {
    // Counter metrics: the median over the traced repetitions.
    let per_rep: Vec<Vec<Metric>> =
        traced.iter().map(|r| layers::counter_metrics(&r.counters, r.committed)).collect();
    let mut m: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].value).collect();
            Metric::new(first.name.clone(), stats::median(&values), first.unit)
        })
        .collect();
    let mut by_label: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for r in traced {
        for (label, samples) in &r.op_host_ns {
            by_label.entry(label).or_default().extend(samples);
        }
    }
    m.extend(layers::label_metrics(&by_label));
    // The 99th percentile sits on the knee between ordinary transactions
    // and lease waits, which moves with the host's speed: too unsteady on
    // micro_dist to carry a bound, so it is reported here.
    let p99 =
        pooled_percentile_us(if untraced.is_empty() { traced } else { untraced }, 0.99, false);
    m.push(Metric::new("workloads.vt_p99_us", p99.expect("not strict"), "us"));
    m.extend(layers::probes());
    let host = |reps: &[&RepResult]| {
        stats::median(&reps.iter().map(|r| host_ns_per_op(r)).collect::<Vec<_>>())
    };
    let overhead = if untraced.is_empty() { 0.0 } else { host(traced) / host(untraced) - 1.0 };
    m.push(Metric::new("bench.trace_overhead_pct", overhead * 100.0, "%"));
    m
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    }))
}

/// The result line of the benchmark contract.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// A run is correct when no operation or output check failed and every
/// metric is a finite number; only then does the process exit with 0.
fn is_correct(failed: u64, errors: &[String], metrics: &[Metric]) -> bool {
    failed == 0 && errors.is_empty() && metrics.iter().all(|m| m.value.is_finite())
}

fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let sizes = w.sizes(args.seconds, REPS, args.quick);
    // Which repetitions are traced.
    let plan: Vec<bool> = match (args.quick, args.trace) {
        (true, traced) => vec![traced],
        (false, false) => vec![false; REPS],
        (false, true) => [false, true].repeat(TRACE_PAIRS),
    };
    println!(
        "# {}: seed {}, {} repetitions of {} warm-up + {} measured ops per worker{}",
        w.name(),
        args.seed,
        plan.len(),
        sizes.warmup,
        sizes.iters,
        if args.quick { " (--quick: not comparable)" } else { "" }
    );
    let tracer = args.trace.then(Tracer::new);
    let mut reps = Vec::with_capacity(plan.len());
    let mut first_rep_peak_rss_mb = Err("no repetition ran".to_string());
    for (i, &traced) in plan.iter().enumerate() {
        let pair = if args.trace && !args.quick { i / 2 } else { i };
        let trace = tracer.as_ref().filter(|_| traced).map(|t| (t, t.open(0, "rep")));
        let r = w.run_rep(rep_seed(args.seed, pair), sizes, trace);
        if let Some((t, rep)) = trace {
            t.close(rep, 0);
        }
        println!(
            "# rep {i}{}: setup {:.3} s, {} ops in {:.3} s host, {:.0} ops per virtual s, \
             rss {:.0} MB after (peak {:.0})",
            if traced { " (traced)" } else { "" },
            r.setup_s,
            r.committed,
            r.measure_host_ns as f64 / 1e9,
            vt_tput(r.committed, r.workers, r.sum_vtime_ns),
            status_mb("VmRSS").unwrap_or(f64::NAN),
            peak_rss_mb().unwrap_or(f64::NAN),
        );
        for e in &r.errors {
            println!("# CHECK FAILED: {e}");
        }
        if i == 0 {
            first_rep_peak_rss_mb = peak_rss_mb();
        }
        reps.push(r);
    }
    let pick = |want: bool| -> Vec<&RepResult> {
        reps.iter().zip(&plan).filter(|(_, &t)| t == want).map(|(r, _)| r).collect()
    };
    let (untraced, traced) = (pick(false), pick(true));

    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    let (metrics, spreads): (Vec<Metric>, Vec<Option<Summary>>) = if args.trace {
        let m = per_layer(&untraced, &traced);
        let n = m.len();
        (m, vec![None; n])
    } else {
        match first_rep_peak_rss_mb.and_then(|rss| end_to_end(&untraced, rss, !args.quick)) {
            Ok(m) => m.into_iter().unzip(),
            Err(e) => {
                errors.push(e);
                (Vec::new(), Vec::new())
            }
        }
    };
    for e in &errors {
        eprintln!("drtm-benchmark: {}: {e}", w.name());
    }

    if let Some(t) = tracer {
        let out = args.dir.join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("trace_{}.json", w.name()));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut file = BufWriter::new(file);
        let spans = t.into_spans();
        spans::write_trace(&mut file, w.name(), args.seed, &spans)
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
    }

    let samples: u64 = untraced.iter().map(|r| r.latency.count()).sum();
    for (m, spread) in metrics.iter().zip(&spreads) {
        let spread = spread.map_or(String::new(), |s| {
            format!("  (median of {}; min {} max {})", untraced.len(), s.min, s.max)
        });
        println!("{:<48} {:>20} {}{spread}", m.name, m.value, m.unit);
    }
    if !args.trace {
        println!("# virtual latencies pool {samples} samples");
        if w == Workload::TpccStdmix {
            if let Some(tput) = metrics.first() {
                println!(
                    "# paper (6 machines x 8 threads, std-mix): {PAPER_TPCC_STDMIX_TPS} txn/s; \
                     vt_tput is {:.3} of it",
                    tput.value / PAPER_TPCC_STDMIX_TPS
                );
            }
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let correct = is_correct(failed, &errors, &metrics);
    // Beside the contract's line: what the medians are medians of.
    let detail = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("comparable", Json::Bool(!args.quick)),
        ("warmup_per_worker", Json::Num(sizes.warmup as f64)),
        ("iters_per_worker", Json::Num(sizes.iters as f64)),
        ("repetitions", Json::Num(plan.len() as f64)),
        ("latency_samples", Json::Num(samples as f64)),
        ("os_threads", Json::Num(workloads::OS_THREADS as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "min_max",
            Json::obj(metrics.iter().zip(&spreads).filter_map(|(m, s)| {
                s.map(|s| (m.name.clone(), Json::Arr(vec![Json::Num(s.min), Json::Num(s.max)])))
            })),
        ),
    ]);
    println!("detail {detail}");
    println!("{}", result_json(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

// ---------------------------------------------------------------------------
// Every workload, one process each
// ---------------------------------------------------------------------------

/// Runs this program again for one workload, echoes its output and
/// returns its `detail` and result lines.
fn child_run(w: Workload, trace: bool, args: &Args) -> Result<(Json, Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut tail: Vec<String> = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        println!("{line}");
        tail.push(line);
        if tail.len() > 2 {
            tail.remove(0);
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let what = format!("{} --trace {}", w.name(), trace as u8);
    let [detail, result] = &tail[..] else {
        return Err(format!("{what} printed no result ({status})"));
    };
    let detail = detail.strip_prefix("detail ").ok_or_else(|| format!("{what}: no detail line"))?;
    Ok((Json::parse(detail)?, Json::parse(result)?, status.success()))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut per_workload = Vec::new();
    for w in Workload::ALL {
        let mut fields = Vec::new();
        for trace in [false, true] {
            if trace && args.e2e_only {
                continue;
            }
            let (detail, result, ok) = child_run(w, trace, args)?;
            all_ok &= ok;
            let prefix = if trace { "per_layer" } else { "end_to_end" };
            fields.push((prefix.to_string(), result));
            fields.push((format!("{prefix}_detail"), detail));
        }
        per_workload.push((w.name().to_string(), Json::Obj(fields)));
    }
    let results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("comparable", Json::Bool(!args.quick)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| args.dir.join("out").join("results.json"));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out, format!("{results}\n")).map_err(|e| format!("{}: {e}", out.display()))?;

    println!(
        "\n== end to end ({}) ==",
        if args.quick { "--quick: NOT comparable" } else { "comparable" }
    );
    print!("{:<16}", "metric");
    for w in Workload::ALL {
        print!(" {:>18}", w.name());
    }
    println!();
    for (name, unit) in END_TO_END {
        print!("{:<16}", format!("{name} [{unit}]"));
        for w in Workload::ALL {
            let v = metric_value(&results, w.name(), "end_to_end", name).unwrap_or(f64::NAN);
            print!(" {v:>18.4}");
        }
        println!();
    }
    print!("{:<16}", "failed/attempted");
    for w in Workload::ALL {
        let r = results
            .get("workloads")
            .and_then(|x| x.get(w.name()))
            .and_then(|x| x.get("end_to_end"));
        let n = |k: &str| r.and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN);
        print!(" {:>18}", format!("{}/{}", n("failed"), n("attempted")));
    }
    println!("\nresults written to {}", out.display());
    Ok(all_ok)
}

fn metric_value(results: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

// ---------------------------------------------------------------------------
// The A/A check
// ---------------------------------------------------------------------------

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Json::parse(&text)?;
    let list = bench.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).ok_or_else(|| format!("an end_to_end metric lacks {k:?}"));
            Ok((
                field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                Better::parse(field("better")?.as_str().ok_or("better is not a string")?)?,
                field("bound")?.as_f64().ok_or("bound is not a number")?,
            ))
        })
        .collect()
}

/// Per-layer numbers that involve no concurrency and no host clock, so
/// two runs of one tree with one seed must agree to the last digit.
fn must_repeat_exactly(workload: &str, metric: &str) -> bool {
    let counter = ["htm.", "rdma.", "memstore.", "core."].iter().any(|p| metric.starts_with(p))
        && !metric.contains(".probe.");
    (workload == "kv_get_zipf" && counter)
        || (metric.contains(".probe.")
            && (metric.ends_with("_vt_ns") || metric.ends_with("_reads")))
}

/// With two result files: every end-to-end metric of the second set may
/// be worse than the first by at most its bound, and the deterministic
/// per-layer numbers must repeat exactly. With more: the spread between
/// the first and third quartile over all sets stays within the bound
/// (`setup_s` is exempt from that rule, as in the benchmark contract).
fn compare(args: &Args) -> Result<bool, String> {
    if args.compare.len() < 2 {
        return Err("--compare needs at least two result files".into());
    }
    let bench = args.dir.join("..").join("BENCHMARK.json");
    let bounds = load_bounds(&bench)?;
    let sets: Vec<Json> = args
        .compare
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text)
        })
        .collect::<Result<_, _>>()?;
    if sets.iter().any(|s| s.get("comparable").and_then(Json::as_bool) != Some(true)) {
        return Err("a result file is stamped comparable: false (--quick)".into());
    }
    let pairwise = sets.len() == 2;
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload",
        "metric",
        if pairwise { "first" } else { "median" },
        if pairwise { "second" } else { "q3 - q1" },
        if pairwise { "worse by" } else { "spread" },
        "bound"
    );
    for w in Workload::ALL {
        for (name, better, bound) in &bounds {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| {
                    metric_value(s, w.name(), "end_to_end", name)
                        .ok_or_else(|| format!("{}: no {name} in a result file", w.name()))
                })
                .collect::<Result<_, _>>()?;
            let (a, b, observed, pass) = if pairwise {
                let worse = worsening(*better, values[0], values[1]);
                (values[0], values[1], worse, within_bound(*better, values[0], values[1], *bound))
            } else {
                let spread = quartile_spread(&values);
                let med = stats::median(&values);
                (med, spread * med, spread, spread <= *bound || name == "setup_s")
            };
            ok &= pass;
            println!(
                "{:<14} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%{}",
                w.name(),
                name,
                observed * 100.0,
                bound * 100.0,
                if pass { "" } else { "  VIOLATION" }
            );
        }
    }
    if pairwise {
        let mut checked = 0;
        for w in Workload::ALL {
            let layer = |s: &Json| -> Option<Vec<(String, f64)>> {
                let m = s.get("workloads")?.get(w.name())?.get("per_layer")?.get("metrics")?;
                Some(
                    m.as_object()?
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                        .collect(),
                )
            };
            let (Some(a), Some(b)) = (layer(&sets[0]), layer(&sets[1])) else { continue };
            for ((name, va), (_, vb)) in a.iter().zip(&b) {
                if must_repeat_exactly(w.name(), name) {
                    checked += 1;
                    if va != vb {
                        ok = false;
                        println!("{:<14} {name}: {va} then {vb}  MUST REPEAT EXACTLY", w.name());
                    }
                }
            }
        }
        println!("{checked} deterministic per-layer numbers compared for exact repetition");
    }
    println!("{}", if ok { "A/A: within bounds" } else { "A/A: VIOLATION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(committed: u64, host_ns: u64, vtime_ns: u64, setup_s: f64) -> RepResult {
        RepResult {
            setup_s,
            measure_host_ns: host_ns,
            committed,
            attempted: committed,
            workers: 4,
            sum_vtime_ns: vtime_ns,
            latency: Dist::from_samples((0..committed).map(|i| 1_000 + i % 100)),
            ..RepResult::default()
        }
    }

    #[test]
    fn end_to_end_takes_medians_over_repetitions() {
        let reps = [
            rep(10_000, 50_000_000, 20_000_000, 0.5),
            rep(10_000, 70_000_000, 10_000_000, 0.7),
            rep(10_000, 60_000_000, 40_000_000, 0.6),
        ];
        let m = end_to_end(&reps.iter().collect::<Vec<_>>(), 123.5, true).unwrap();
        let names: Vec<&str> = m.iter().map(|(m, _)| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        let get = |name: &str| m.iter().find(|(m, _)| m.name == name).unwrap();
        assert_eq!(get("vt_tput").0.value, vt_tput(10_000, 4, 20_000_000));
        assert_eq!(get("host_ns_per_op").0.value, 6_000.0);
        assert_eq!(
            get("host_ns_per_op").1,
            Some(Summary { median: 6_000.0, min: 5_000.0, max: 7_000.0 })
        );
        assert_eq!(get("setup_s").0.value, 0.6);
        assert!(get("vt_p50_us").0.value > 1.0 && get("vt_p999_us").0.value < 1.1);
        assert_eq!(get("peak_rss_mb").0.value, 123.5);
        // Too few samples for p999: strict mode refuses, --quick does not.
        let short = [rep(100, 1, 1, 0.1)];
        assert!(end_to_end(&short.iter().collect::<Vec<_>>(), 1.0, true).is_err());
        assert!(end_to_end(&short.iter().collect::<Vec<_>>(), 1.0, false).is_ok());
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let m = [Metric::new("vt_tput", 1.0, "1/s")];
        assert!(is_correct(0, &[], &m));
        assert!(!is_correct(1, &[], &m));
        assert!(!is_correct(0, &["TPC-C: W_YTD != sum of D_YTD".to_string()], &m));
        assert!(!is_correct(0, &[], &[Metric::new("vt_tput", f64::NAN, "1/s")]));
        let line = result_json(false, 10, 1, &m).to_string();
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 10, "failed": 1, "metrics": {"vt_tput": {"value": 1, "unit": "1/s"}}}"#
        );
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload micro_dist --seed 42 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("micro_dist"), 42, 15, true)
        );
        let a = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(a.compare.len(), 2);
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn deterministic_numbers_are_the_concurrency_free_ones() {
        assert!(must_repeat_exactly("kv_get_zipf", "memstore.cache_hit_rate"));
        assert!(must_repeat_exactly("kv_get_zipf", "rdma.reads_per_op"));
        assert!(!must_repeat_exactly("tpcc_stdmix", "rdma.reads_per_op"));
        assert!(must_repeat_exactly("tpcc_stdmix", "rdma.probe.read64_vt_ns"));
        assert!(must_repeat_exactly("micro_dist", "memstore.probe.remote_lookup_reads"));
        assert!(!must_repeat_exactly("kv_get_zipf", "rdma.probe.read64_host_ns"));
        assert!(!must_repeat_exactly("kv_get_zipf", "workloads.host_ns_p50.get"));
        assert!(!must_repeat_exactly("kv_get_zipf", "bench.trace_overhead_pct"));
    }

    /// `BENCHMARK.json` and the code name the same metrics with the same
    /// units, and the workloads are the same four.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(
            load_bounds(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json"))
                .unwrap()
                .len(),
            END_TO_END.len()
        );
        let mut layer = layers::counter_metrics(&workloads::Counters::default(), 1);
        layer.extend(layers::label_metrics(&BTreeMap::new()));
        let mut names: Vec<(String, String)> =
            layer.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
        names.push(("workloads.vt_p99_us".into(), "us".into()));
        names.extend(layers::probes().iter().map(|m| (m.name.clone(), m.unit.to_string())));
        names.push(("bench.trace_overhead_pct".into(), "%".into()));
        assert_eq!(listed("per_layer"), names);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
