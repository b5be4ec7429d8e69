//! End-to-end NoBench benchmark of Sinew.
//!
//! ```text
//! nobench-e2e --workload <pipeline|virtual_scan|update_mix> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding every end-to-end metric; with `--trace 1` it holds the
//! per-layer metrics of a traced run instead, and the spans are written
//! to `.bench_work/traces/`. See README.md.

mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Settings, Workload};

const USAGE: &str =
    "usage: nobench-e2e --workload <pipeline|virtual_scan|update_mix> [--seed N] [--seconds S] [--trace 0|1]";

/// Scratch space for database files and traces, under the directory the
/// benchmark runs from.
const WORK_ROOT: &str = ".bench_work";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Settings, String> {
    let mut workload = None;
    // NoBenchConfig's default seed.
    let mut seed = 2014;
    let mut seconds = 30.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("expected seconds in (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Settings {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let settings = match parse_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Engine knobs change what is measured; parent and change must run
    // the same configuration, so none may come from the environment.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SINEW_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with engine knobs set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec_threads = sinew_rdbms::ExecLimits::default().exec_threads;
    let wal = workloads::wal_config();
    println!(
        "# nobench-e2e workload={} seed={} seconds={} trace={}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        settings.trace as u8
    );
    println!(
        "# host nproc={nproc} engine exec_threads={exec_threads} wal={} flush=fsync every {} commit(s), checkpoint at {} log bytes",
        if wal.enabled { "on" } else { "off" },
        wal.group_commit,
        wal.checkpoint_bytes
    );

    let work = PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}",
        settings.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let result = workloads::run(settings, &work);
    let cleanup = remove_work(&work);
    let (outcome, tracer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", settings.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Err(e) = cleanup {
        eprintln!("warning: could not remove {}: {e}", work.display());
    }

    if settings.trace {
        match write_trace(&tracer, &settings) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("writing spans: {e}");
                return ExitCode::from(1);
            }
        }
        print_layers(&tracer);
    }
    for e in &outcome.errors {
        println!("# statement error: {e}");
    }
    for m in &outcome.mismatches {
        println!("# MISMATCH: {m}");
    }
    println!("# metrics (value, unit, samples):");
    outcome.report.print_table();
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.report.metrics_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Remove the run's scratch files, then sync their parent directory so the
/// file system finishes freeing them now rather than during the next run.
fn remove_work(work: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(work)?;
    std::fs::File::open(WORK_ROOT)?.sync_all()
}

fn write_trace(tracer: &trace::Tracer, s: &Settings) -> std::io::Result<PathBuf> {
    let dir = Path::new(WORK_ROOT).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.csv", s.workload.name(), s.seed));
    tracer.write_csv(&path)?;
    Ok(path)
}

/// Self time per span name, largest first.
fn print_layers(tracer: &trace::Tracer) {
    let mut layers: Vec<_> = tracer.layer_times().into_iter().collect();
    layers.sort_by_key(|(_, (_, _, self_ns))| std::cmp::Reverse(*self_ns));
    let total: u64 = layers.iter().map(|(_, (_, _, s))| s).sum();
    println!("# self time by span (traced blocks and phases):");
    for (name, (calls, dur, self_ns)) in layers {
        println!(
            "#   {name:<20} calls={calls:<8} total_ms={:<12.3} self_ms={:<12.3} self_share={:.4}",
            dur as f64 / 1e6,
            self_ns as f64 / 1e6,
            self_ns as f64 / total.max(1) as f64
        );
    }
}
