//! The three NoBench workloads. Each is a closed loop with one client
//! thread; the engine keeps its default executor threads and its
//! background vacuum thread. See README.md for why each workload exists.

use crate::stats::{median, percentile, Report, P90_MIN_SAMPLES};
use crate::trace::Tracer;
use sinew_core::{rewriter, AnalyzerPolicy, AttrType, Sinew, StepBudget};
use sinew_json::Value;
use sinew_nobench::queries::{MongoSut, SystemUnderTest};
use sinew_nobench::{generate, NoBenchConfig, QueryParams};
use sinew_rdbms::{Database, Datum, DbError, DbResult, QueryResult, WalConfig};
use sinew_serial::{sinew as serial, SType, SValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TABLE: &str = "nobench";

/// Buffer pool of every workload: 128 MiB of 8 KiB frames, allocated as
/// pages are touched, so the data always fits. With a pool smaller than
/// the table, every scan misses and the two executor threads contend on
/// the pager; on a 2-vCPU virtual machine that made tail latencies swing
/// twofold from run to run, so no workload runs in that regime.
const POOL: usize = 16_384;

const VIRTUAL_SCAN_DOCS: u64 = 2_500;

const PIPELINE_DOCS: u64 = 2_000;
const UPDATE_MIX_DOCS: u64 = 1_000;

/// Set-ups per run of `virtual_scan` and `update_mix`; `setup_s` is their
/// median. `pipeline`'s set-up only generates documents, so it repeats at
/// every probe instead.
const SETUPS: usize = 3;

/// Full-size promotions per `pipeline` run, each on a fresh instance;
/// `promote_s` is their median. One ~10 s promotion spread 0.15–0.20 of
/// its median over ten runs.
const PIPELINE_PROMOTIONS: usize = 2;

/// Probes per run, spread evenly over the measured loop. Each is a timed
/// recovery of the crash image (`reopen_s`) and a timed load into a fresh
/// in-memory instance (`load_docs_per_s`); in `pipeline` also a timed
/// set-up (`setup_s`), and in `virtual_scan` a promotion under
/// `AnalyzerPolicy::never()` (`promote_s`: an analyzer pass and an
/// ANALYZE of ~6 ms, which change nothing). Their medians then
/// span the same stretch of time as the latencies rather than one moment
/// of the host. A file-backed load of NoBench is dominated by ~1,000
/// fsyncs (one durable catalog insert per new attribute), which set-up
/// time shows; the rate measures the loader itself.
const PROBES: usize = 30;

/// Statements written after the checkpoint and before the crash image is
/// taken, so recovery replays the same amount of log in every run.
const DURABLE_TAIL: usize = 10;

/// Longest a measured loop may run while it waits for enough samples.
const LOOP_CAP: Duration = Duration::from_secs(120);

/// Wait after dropping an instance so its vacuum thread (100 ms period)
/// finishes any pass in flight and releases the database.
const VACUUM_SETTLE: Duration = Duration::from_millis(300);

/// Commits per fsync. Every workload keeps the log, its checkpoints and
/// recovery, but not the engine's default fsync per commit: on a shared
/// virtual disk the fsync's latency follows the neighbours' I/O, and with
/// it `update_mix`'s update p90 moved between 0.97 and 1.55 ms over five
/// consecutive runs. Loads (~1,000 catalog commits) and updates then
/// measure the engine rather than the disk; `wal.fsyncs` still counts the
/// syncs a change adds or removes.
const GROUP_COMMIT: u64 = 1_000;

/// Upper bound on materializer steps in one promotion.
const MAX_STEPS: usize = 100_000;

#[derive(Clone, Copy)]
pub enum Workload {
    Pipeline,
    VirtualScan,
    UpdateMix,
}

/// The WAL configuration every instance runs with.
pub fn wal_config() -> WalConfig {
    WalConfig {
        group_commit: GROUP_COMMIT,
        ..WalConfig::default()
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Pipeline,
        Workload::VirtualScan,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::VirtualScan => "virtual_scan",
            Workload::UpdateMix => "update_mix",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run produced.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
}

#[derive(Clone, Copy)]
enum Class {
    Projection,
    Selection,
    Analytic,
    Update,
}

const PROJECTION: [u8; 4] = [1, 2, 3, 4];
const SELECTION: [u8; 5] = [5, 6, 7, 8, 9];
const ANALYTIC: [u8; 2] = [10, 11];

/// The logical SQL of NoBench Q1–Q11, the same text the `SinewSut`
/// adapter sends through `Sinew::query`.
fn nobench_sql(q: u8, p: &QueryParams) -> String {
    let star = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    match q {
        1 => "SELECT str1, num FROM nobench".into(),
        2 => r#"SELECT "nested_obj.str", "nested_obj.num" FROM nobench"#.into(),
        3 => "SELECT sparse_110, sparse_119 FROM nobench".into(),
        4 => "SELECT sparse_110, sparse_220 FROM nobench".into(),
        5 => format!("{star} WHERE str1 = '{}'", p.point_str1),
        6 => format!("{star} WHERE num BETWEEN {} AND {}", p.num_lo, p.num_lo + p.num_width),
        7 => format!("{star} WHERE dyn1 BETWEEN {} AND {}", p.dyn_lo, p.dyn_lo + p.dyn_width),
        8 => format!("{star} WHERE array_contains(nested_arr, '{}')", p.arr_elem),
        9 => format!("{star} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val),
        10 => format!(
            "SELECT thousandth, COUNT(*) FROM nobench WHERE num BETWEEN {} AND {} GROUP BY thousandth",
            p.agg_lo,
            p.agg_lo + p.agg_width
        ),
        11 => format!(
            r#"SELECT l.str1, r.num FROM nobench l, nobench r WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN {} AND {}"#,
            p.join_lo,
            p.join_lo + p.join_width
        ),
        other => unreachable!("NoBench has no query {other}"),
    }
}

/// The paper's Figure 8 random update.
fn figure8_sql(p: &QueryParams) -> String {
    format!(
        "UPDATE nobench SET {} = 'DUMMY' WHERE {} = '{}'",
        p.update_set_key, p.update_where_key, p.update_where_val
    )
}

/// Expected results from the independent MongoDB-like adapter, computed
/// once per run outside every timed section.
struct Reference {
    counts: [u64; 12],
    update_affected: u64,
}

fn reference(docs: &[Value], p: &QueryParams) -> Result<Reference, String> {
    let mut mongo = MongoSut::new();
    mongo.load(docs)?;
    let mut counts = [0u64; 12];
    for q in 1..=11u8 {
        counts[q as usize] = mongo.run_query(q, p)?;
    }
    let update_affected = mongo.run_update(p)?;
    Ok(Reference {
        counts,
        update_affected,
    })
}

/// One generated dataset with its query parameters.
struct Dataset {
    docs: Vec<Value>,
    params: QueryParams,
    json_bytes: u64,
}

fn dataset(n: u64, seed: u64) -> Dataset {
    let cfg = NoBenchConfig {
        seed,
        ..NoBenchConfig::default()
    };
    let docs = generate(n, &cfg);
    let params = QueryParams::derive(&docs, &cfg);
    let json_bytes = docs.iter().map(|d| d.to_json().len() as u64).sum();
    Dataset {
        docs,
        params,
        json_bytes,
    }
}

/// Counters read through the engine's public snapshots, in per-layer
/// metric order.
const COUNTERS: [&str; 25] = [
    "rewriter.virtual_refs",
    "rewriter.coalesce_refs",
    "extract.udf_calls",
    "extract.plan_hits",
    "extract.plan_lookups",
    "exec.heap_fetches",
    "exec.parallel_scans",
    "exec.morsels",
    "exec.join_build_rows",
    "exec.columnar_scans",
    "exec.segments_pruned",
    "btree.index_scans",
    "btree.maintenance_ops",
    "txn.committed",
    "txn.aborted",
    "txn.write_conflicts",
    "txn.versions_created",
    "txn.versions_vacuumed",
    "wal.appends",
    "wal.fsyncs",
    "wal.bytes",
    "wal.checkpoints",
    "pager.disk_reads",
    "pager.disk_writes",
    "pager.cache_hits",
];

type Counters = [u64; COUNTERS.len()];

fn read_counters(sinew: &Sinew) -> Counters {
    let m = sinew.metrics().snapshot();
    let e = sinew.db().exec_stats();
    let io = sinew.db().io_stats();
    [
        m.rewritten_virtual_refs,
        m.rewritten_coalesce_refs,
        m.udf_extractions + m.udf_fused_extractions + m.udf_exists_probes,
        m.plan_cache_hits,
        m.plan_cache_hits + m.plan_cache_misses + m.plan_cache_stale_rebuilds,
        e.heap_fetches,
        e.parallel_scans,
        e.morsels_dispatched,
        e.join_build_rows,
        e.columnar_scans,
        e.segments_pruned,
        e.index_scans,
        e.index_maintenance_ops,
        e.txns_committed,
        e.txns_aborted,
        e.write_conflicts,
        e.versions_created,
        e.versions_vacuumed,
        e.wal_appends,
        e.wal_fsyncs,
        e.wal_bytes,
        e.wal_checkpoints,
        io.disk_reads,
        io.disk_writes,
        io.cache_hits,
    ]
}

fn add_delta(acc: &mut Counters, after: &Counters, before: &Counters) {
    for i in 0..acc.len() {
        acc[i] += after[i].saturating_sub(before[i]);
    }
}

fn counter(c: &Counters, name: &str) -> u64 {
    let i = COUNTERS
        .iter()
        .position(|n| *n == name)
        .expect("known counter name");
    c[i]
}

/// How to read one attribute from a recovered table row.
enum Field {
    Column(String),
    Reservoir(u32, SType),
}

/// Where `key` lives in `TABLE` (physical column or reservoir), looked up
/// while the instance that wrote the data is still open.
fn locate(sinew: &Sinew, key: &str, ty: AttrType) -> Result<Field, String> {
    let id = sinew
        .catalog()
        .lookup(key, ty)
        .ok_or_else(|| format!("attribute {key} is not in the catalog"))?;
    let st = sinew.catalog().column_state(TABLE, id);
    if let Some(st) = st.filter(|s| s.materialized && !s.dirty) {
        return Ok(Field::Column(st.column_name));
    }
    let stype = match ty {
        AttrType::Int => SType::Int,
        AttrType::Text => SType::Text,
        other => return Err(format!("readback of {other:?} attributes is not supported")),
    };
    Ok(Field::Reservoir(id, stype))
}

/// Rows of `SELECT * FROM nobench` on a recovered database.
struct Recovered {
    columns: Vec<String>,
    rows: Vec<Vec<Datum>>,
}

impl Recovered {
    fn column(&self, row: &[Datum], name: &str) -> Option<Datum> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(row[i].clone()).filter(|d| !d.is_null())
    }
}

/// Read `f` from one row of `rec`.
fn read_field(rec: &Recovered, row: &[Datum], f: &Field) -> Option<Datum> {
    match f {
        Field::Column(name) => rec.column(row, name),
        Field::Reservoir(id, ty) => {
            let Datum::Bytea(bytes) = rec.column(row, "data")? else {
                return None;
            };
            let (_, raw) = serial::iter_raw(&bytes).ok()?.find(|(a, _)| a == id)?;
            match serial::decode_value(raw, *ty).ok()? {
                SValue::Int(v) => Some(Datum::Int(v)),
                SValue::Text(s) => Some(Datum::Text(s)),
                _ => None,
            }
        }
    }
}

/// The client: runs statements layer by layer, counts attempts and
/// failures, and keeps the latency samples of each class.
struct Bench {
    settings: Settings,
    work: PathBuf,
    tr: Tracer,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    errors: Vec<String>,
    latency: [Vec<f64>; 4],
    /// Counter deltas over the measured query loops.
    loop_counters: Counters,
    loop_statements: u64,
    loop_selects: u64,
    loop_updates: u64,
    /// Wall time of untraced and traced rounds (traced run only).
    rounds_s: [Vec<f64>; 2],
    // Phase measurements.
    setup_s: Vec<f64>,
    load_rate: Vec<f64>,
    load_bytes: Vec<u64>,
    promote_s: Vec<f64>,
    promotions: u64,
    steps: u64,
    values_moved: u64,
    rows_scanned: u64,
    txn_conflicts: u64,
    rows_sampled: Vec<u64>,
    bytes_ratio: Vec<f64>,
    columnar: Option<(usize, u64)>,
    reopen_s: Vec<f64>,
    recovered_pages: Vec<u64>,
    half_promote_s: Option<f64>,
}

const MAX_NOTES: usize = 10;

impl Bench {
    fn new(settings: Settings, work: PathBuf) -> Bench {
        let tr = Tracer::new(settings.trace);
        Bench {
            settings,
            work,
            tr,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            errors: Vec::new(),
            latency: Default::default(),
            loop_counters: [0; COUNTERS.len()],
            loop_statements: 0,
            loop_selects: 0,
            loop_updates: 0,
            rounds_s: Default::default(),
            setup_s: Vec::new(),
            load_rate: Vec::new(),
            load_bytes: Vec::new(),
            promote_s: Vec::new(),
            promotions: 0,
            steps: 0,
            values_moved: 0,
            rows_scanned: 0,
            txn_conflicts: 0,
            rows_sampled: Vec::new(),
            bytes_ratio: Vec::new(),
            columnar: None,
            reopen_s: Vec::new(),
            recovered_pages: Vec::new(),
            half_promote_s: None,
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.mismatches.len() < MAX_NOTES {
                self.mismatches.push(what());
            } else if self.mismatches.len() == MAX_NOTES {
                self.mismatches.push("(further mismatches omitted)".into());
            }
        }
    }

    /// Run one logical statement: parse, rewrite, (traced: plan), execute.
    fn statement(&mut self, sinew: &Sinew, sql: &str) -> Option<QueryResult> {
        self.attempted += 1;
        self.tr.next_statement();
        let root = self.tr.begin("statement");
        let r = self.layers(sinew, sql);
        self.tr.end(root);
        match r {
            Ok(r) => Some(r),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < MAX_NOTES {
                    self.errors.push(format!("{sql}: {e}"));
                }
                None
            }
        }
    }

    fn layers(&mut self, sinew: &Sinew, sql: &str) -> DbResult<QueryResult> {
        let parsed = self
            .tr
            .span("sql.parse", || sinew_sql::parse_statement(sql))
            .map_err(|e| DbError::Parse(e.to_string()))?;
        let physical = self.tr.span("rewriter.rewrite", || {
            rewriter::rewrite_statement(sinew, &parsed)
        })?;
        if self.tr.enabled() {
            if let sinew_sql::Statement::Select(sel) = &physical {
                self.tr.span("planner.plan", || sinew.db().plan(sel))?;
            }
        }
        self.tr
            .span("exec.execute", || sinew.db().execute_statement(&physical))
    }

    /// One pass over a latency class: `f` issues `n` statements of
    /// `class`, and the class gets one sample, the pass's mean time per
    /// statement. A class mixes queries of different cost, so per-statement
    /// percentiles would fall in the gaps between them; one sample per
    /// pass keeps the distribution unimodal.
    fn pass(&mut self, class: Class, n: usize, f: impl FnOnce(&mut Bench)) {
        let t = Instant::now();
        f(self);
        self.latency[class as usize].push(t.elapsed().as_secs_f64() * 1e3 / n as f64);
        self.loop_statements += n as u64;
        match class {
            Class::Update => self.loop_updates += n as u64,
            _ => self.loop_selects += n as u64,
        }
    }

    /// Run NoBench queries `qs` as one pass of `class`, comparing each row
    /// count with the reference.
    fn queries(
        &mut self,
        sinew: &Sinew,
        class: Class,
        qs: &[u8],
        p: &QueryParams,
        refs: &Reference,
    ) {
        self.pass(class, qs.len(), |b| {
            for &q in qs {
                if let Some(r) = b.statement(sinew, &nobench_sql(q, p)) {
                    let (got, want) = (r.rows.len() as u64, refs.counts[q as usize]);
                    b.check(got == want, || {
                        format!("Q{q}: {got} rows, reference {want}")
                    });
                }
            }
        });
    }

    fn figure8(&mut self, sinew: &Sinew, p: &QueryParams, refs: &Reference) {
        if let Some(r) = self.statement(sinew, &figure8_sql(p)) {
            let (got, want) = (r.affected, refs.update_affected);
            self.check(got == want, || {
                format!("Figure 8 update: {got} rows, reference {want}")
            });
        }
    }

    fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    /// A fresh file-backed instance with an empty collection.
    fn open_fresh(&mut self, name: &str) -> Result<(Sinew, PathBuf), String> {
        let path = self.dir(name)?.join("db");
        let db = Database::open_with_wal(&path, POOL, None, wal_config())
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let sinew = Sinew::with_db(db);
        sinew.create_collection(TABLE).map_err(|e| e.to_string())?;
        Ok((sinew, path))
    }

    /// Load `data` into a workload's file-backed instance.
    fn load_durable(&mut self, sinew: &Sinew, data: &Dataset) -> Result<(), String> {
        self.tr.next_statement();
        self.tr
            .span("loader.load_durable", || sinew.load_docs(TABLE, &data.docs))
            .map(|_| ())
            .map_err(|e| format!("load: {e}"))
    }

    /// One `load_docs_per_s` sample: load `data` into a fresh in-memory
    /// instance.
    fn load_rate(&mut self, data: &Dataset) -> Result<(), String> {
        let sinew = Sinew::in_memory();
        sinew.create_collection(TABLE).map_err(|e| e.to_string())?;
        let before = sinew.metrics().snapshot().loader_bytes;
        self.tr.next_statement();
        let t = Instant::now();
        self.tr
            .span("loader.load", || sinew.load_docs(TABLE, &data.docs))
            .map_err(|e| format!("load: {e}"))?;
        self.load_rate
            .push(data.docs.len() as f64 / t.elapsed().as_secs_f64());
        self.load_bytes
            .push(sinew.metrics().snapshot().loader_bytes - before);
        Ok(())
    }

    /// Analyzer, then materializer steps until no column is dirty, then
    /// ANALYZE. Returns the elapsed seconds.
    fn promote(&mut self, sinew: &Sinew, policy: &AnalyzerPolicy) -> Result<f64, String> {
        let before = sinew.metrics().snapshot();
        self.tr.next_statement();
        let root = self.tr.begin("promote");
        let t = Instant::now();
        let r = self.promote_steps(sinew, policy);
        let secs = t.elapsed().as_secs_f64();
        self.tr.end(root);
        let steps = r?;
        let after = sinew.metrics().snapshot();
        let moved = |m: &sinew_core::MetricsSnapshot| {
            m.materializer_values_materialized + m.materializer_values_dematerialized
        };
        self.promotions += 1;
        self.steps += steps;
        self.values_moved += moved(&after) - moved(&before);
        self.rows_scanned += after.materializer_rows_scanned - before.materializer_rows_scanned;
        self.txn_conflicts += after.materializer_txn_conflicts - before.materializer_txn_conflicts;
        self.rows_sampled
            .push(after.analyzer_rows_sampled - before.analyzer_rows_sampled);
        let infos = sinew
            .db()
            .columnar_infos(TABLE)
            .map_err(|e| e.to_string())?;
        self.columnar = Some((infos.len(), infos.iter().map(|i| i.encoded_bytes).sum()));
        Ok(secs)
    }

    fn promote_steps(&mut self, sinew: &Sinew, policy: &AnalyzerPolicy) -> Result<u64, String> {
        self.tr
            .span("analyzer.run", || sinew.run_analyzer(TABLE, policy))
            .map_err(|e| format!("analyzer: {e}"))?;
        let mut steps = 0u64;
        while !sinew.catalog().dirty_attrs(TABLE).is_empty() {
            steps += 1;
            if steps as usize > MAX_STEPS {
                return Err(format!("promotion did not finish within {MAX_STEPS} steps"));
            }
            self.tr
                .span("materializer.step", || {
                    sinew.materialize_step(TABLE, StepBudget::default())
                })
                .map_err(|e| format!("materializer: {e}"))?;
        }
        self.tr
            .span("stats.analyze", || sinew.db().analyze(TABLE))
            .map_err(|e| format!("analyze: {e}"))?;
        Ok(steps)
    }

    fn bytes_ratio(&mut self, sinew: &Sinew, data: &Dataset) -> Result<(), String> {
        let live = sinew
            .db()
            .table_live_bytes(TABLE)
            .map_err(|e| e.to_string())?;
        self.bytes_ratio.push(live as f64 / data.json_bytes as f64);
        Ok(())
    }

    /// Take the crash image of the live instance at `path`: checkpoint,
    /// write a fixed tail with `tail`, then copy the data file and the log
    /// as they stand. Commits reach the log file as they happen and pages
    /// reach the data file only at checkpoints, so the copy is what a crash
    /// at this moment would leave; the caller reads it back after the
    /// first reopen.
    fn crash_image(
        &mut self,
        sinew: &Sinew,
        path: &Path,
        tail: impl FnOnce(&mut Bench),
    ) -> Result<CrashImage, String> {
        sinew
            .db()
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        tail(self);
        sinew.db().vacuum().map_err(|e| format!("vacuum: {e}"))?;
        let dir = self.dir("image")?;
        let image = CrashImage {
            path: dir.join("db"),
            crashed_wal: dir.join("crashed-wal"),
        };
        copy_synced(path, &image.path)?;
        copy_synced(&wal_path(path), &image.crashed_wal)?;
        Ok(image)
    }

    /// The probe every workload runs: recover `image`, load `data`.
    fn probe(&mut self, image: &CrashImage, data: &Dataset) -> Result<(), String> {
        drop(self.reopen(image)?);
        self.load_rate(data)
    }

    /// Recover the crash image with `Database::open`, timed. Recovery
    /// writes the logged pages into the data file and starts a new log, so
    /// the crashed log is restored first and every reopen replays the same
    /// commits.
    fn reopen(&mut self, image: &CrashImage) -> Result<Database, String> {
        copy_synced(&image.crashed_wal, &wal_path(&image.path))?;
        self.tr.next_statement();
        let t = Instant::now();
        let db = self
            .tr
            .span("db.open", || {
                Database::open_with_wal(&image.path, POOL, None, wal_config())
            })
            .map_err(|e| format!("reopen: {e}"))?;
        self.reopen_s.push(t.elapsed().as_secs_f64());
        self.recovered_pages
            .push(db.exec_stats().wal_recovered_pages);
        Ok(db)
    }

    /// Drop `sinew` without flushing its buffer pool (a crash that keeps
    /// only the bytes written to its files) and recover it, untimed.
    fn crash(&mut self, sinew: Sinew, path: &Path) -> Result<Database, String> {
        sinew.db().vacuum().map_err(|e| format!("vacuum: {e}"))?;
        drop(sinew);
        std::thread::sleep(VACUUM_SETTLE);
        Database::open_with_wal(path, POOL, None, wal_config()).map_err(|e| format!("recover: {e}"))
    }

    /// Run `round` until the run's time is up and every class has
    /// enough samples for p90 (and, traced, an even number of rounds).
    /// Between rounds, run `probe` whenever one is due; the loop's counter
    /// deltas leave out what probes do to `sinew`.
    fn measured_rounds(
        &mut self,
        sinew: &Sinew,
        mut probe: impl FnMut(&mut Bench) -> Result<(), String>,
        mut round: impl FnMut(&mut Bench, usize),
    ) -> Result<usize, String> {
        let interval = self.settings.seconds / PROBES as f64;
        let mut due = interval;
        let start = Instant::now();
        let before = read_counters(sinew);
        let mut probes: Counters = [0; COUNTERS.len()];
        let mut r = 0usize;
        loop {
            let enough = self.latency.iter().all(|l| l.len() >= P90_MIN_SAMPLES);
            let elapsed = start.elapsed();
            if enough && elapsed.as_secs_f64() >= self.settings.seconds && r.is_multiple_of(2) {
                break;
            }
            if elapsed > LOOP_CAP {
                return Err(format!(
                    "measured loop still short of samples after {LOOP_CAP:?}"
                ));
            }
            self.round(r, |b| round(b, r));
            r += 1;
            if start.elapsed().as_secs_f64() >= due {
                let at = read_counters(sinew);
                probe(self)?;
                add_delta(&mut probes, &read_counters(sinew), &at);
                due += interval;
            }
        }
        let mut after = read_counters(sinew);
        for (a, p) in after.iter_mut().zip(probes) {
            *a -= p;
        }
        add_delta(&mut self.loop_counters, &after, &before);
        Ok(r)
    }

    /// Run round `r`. The traced run traces even rounds only and times
    /// both kinds, which gives the tracing overhead.
    fn round(&mut self, r: usize, round: impl FnOnce(&mut Bench)) {
        if !self.settings.trace {
            round(self);
            return;
        }
        let traced = r.is_multiple_of(2);
        self.tr.set_enabled(traced);
        let t = Instant::now();
        round(self);
        self.rounds_s[traced as usize].push(t.elapsed().as_secs_f64());
        self.tr.set_enabled(true);
    }

    /// One round of the paper's query mix: Q1–Q11 by class, then the
    /// Figure 8 update.
    fn paper_round(&mut self, sinew: &Sinew, p: &QueryParams, refs: &Reference) {
        self.queries(sinew, Class::Projection, &PROJECTION, p, refs);
        self.queries(sinew, Class::Selection, &SELECTION, p, refs);
        self.queries(sinew, Class::Analytic, &ANALYTIC, p, refs);
        self.pass(Class::Update, 1, |b| b.figure8(sinew, p, refs));
    }

    /// Check the Figure 8 update on a recovered database: every row with
    /// the predicate value carries the new value, and as many rows as the
    /// reference says.
    fn readback_figure8(
        &mut self,
        db: &Database,
        fields: &[Field; 2],
        p: &QueryParams,
        refs: &Reference,
    ) {
        let Some(rec) = self.scan_recovered(db) else {
            return;
        };
        let mut hits = 0u64;
        for row in &rec.rows {
            let Some(Datum::Text(v)) = read_field(&rec, row, &fields[0]) else {
                continue;
            };
            if v != p.update_where_val {
                continue;
            }
            hits += 1;
            let set = read_field(&rec, row, &fields[1]);
            self.check(set == Some(Datum::Text("DUMMY".into())), || {
                format!("recovered row lost the Figure 8 update: {set:?}")
            });
        }
        let want = refs.update_affected;
        self.check(hits == want, || {
            format!("recovered {hits} Figure 8 rows, reference {want}")
        });
    }

    fn scan_recovered(&mut self, db: &Database) -> Option<Recovered> {
        match db.execute("SELECT * FROM nobench") {
            Ok(r) => Some(Recovered {
                columns: r.columns,
                rows: r.rows,
            }),
            Err(e) => {
                self.check(false, || format!("scan of recovered table failed: {e}"));
                None
            }
        }
    }

    /// The paper workloads' crash image: a fixed tail of Figure 8 updates
    /// after a checkpoint. The image is read back once, after its first
    /// reopen.
    fn figure8_image(
        &mut self,
        sinew: &Sinew,
        path: &Path,
        fields: &[Field; 2],
        p: &QueryParams,
        refs: &Reference,
    ) -> Result<CrashImage, String> {
        let image = self.crash_image(sinew, path, |b| {
            for _ in 0..DURABLE_TAIL {
                b.figure8(sinew, p, refs);
            }
        })?;
        let db = self.reopen(&image)?;
        self.readback_figure8(&db, fields, p, refs);
        Ok(image)
    }
}

/// Where the Figure 8 predicate key and the updated key live.
fn figure8_fields(sinew: &Sinew, p: &QueryParams) -> Result<[Field; 2], String> {
    Ok([
        locate(sinew, &p.update_where_key, AttrType::Text)?,
        locate(sinew, &p.update_set_key, AttrType::Text)?,
    ])
}

/// A crashed copy of a workload's database, recovered again and again
/// during the measured loop for `reopen_s`.
struct CrashImage {
    /// Data file that recovery works on; its log sits beside it.
    path: PathBuf,
    /// The log as the crash left it, restored before every reopen.
    crashed_wal: PathBuf,
}

/// Copy `src` to `dst` and sync the copy, so recovery's own fsyncs do not
/// also write the copy out.
fn copy_synced(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::copy(src, dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
    std::fs::File::open(dst)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", dst.display()))
}

fn wal_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// `pipeline`: load and promote (twice, on fresh instances), then query
/// rounds with the Figure 8 update and probes, then a crash and a
/// read-back.
fn pipeline(b: &mut Bench) -> Result<(), String> {
    let seed = b.settings.seed;
    let setup = |b: &mut Bench| {
        let t = Instant::now();
        let data = dataset(PIPELINE_DOCS, seed);
        b.setup_s.push(t.elapsed().as_secs_f64());
        data
    };
    let data = setup(b);
    let refs = reference(&data.docs, &data.params)?;
    if b.settings.trace {
        // Doubling check: promote a half-size collection on a separate
        // client, so the per-layer figures stay about the full size.
        let mut half = Bench::new(b.settings, b.work.clone());
        let data = dataset(PIPELINE_DOCS / 2, seed);
        let (sinew, _) = half.open_fresh("half")?;
        half.load_durable(&sinew, &data)?;
        b.half_promote_s = Some(half.promote(&sinew, &AnalyzerPolicy::default())?);
    }
    let mut inst = None;
    for i in 0..PIPELINE_PROMOTIONS {
        drop(inst.take());
        let (sinew, path) = b.open_fresh(&format!("main{i}"))?;
        b.load_durable(&sinew, &data)?;
        let secs = b.promote(&sinew, &AnalyzerPolicy::default())?;
        b.promote_s.push(secs);
        b.bytes_ratio(&sinew, &data)?;
        inst = Some((sinew, path));
    }
    let (sinew, path) = inst.expect("at least one promotion");
    paper_loop(b, sinew, &path, &data, &refs, |b, _| {
        setup(b);
        Ok(())
    })
}

/// The measured part of the paper workloads: a crash image, query rounds
/// with probes (each also running the workload's `extra`), then a crash
/// of the live instance and a read-back of the Figure 8 update.
fn paper_loop(
    b: &mut Bench,
    sinew: Sinew,
    path: &Path,
    data: &Dataset,
    refs: &Reference,
    mut extra: impl FnMut(&mut Bench, &Sinew) -> Result<(), String>,
) -> Result<(), String> {
    let p = &data.params;
    let fields = figure8_fields(&sinew, p)?;
    let image = b.figure8_image(&sinew, path, &fields, p, refs)?;
    let probe = |b: &mut Bench| {
        b.probe(&image, data)?;
        extra(b, &sinew)
    };
    b.measured_rounds(&sinew, probe, |b, _| b.paper_round(&sinew, p, refs))?;
    let db = b.crash(sinew, path)?;
    b.readback_figure8(&db, &fields, p, refs);
    Ok(())
}

/// `virtual_scan`: every column stays virtual.
fn virtual_scan(b: &mut Bench) -> Result<(), String> {
    let seed = b.settings.seed;
    let mut inst = None;
    for i in 0..SETUPS {
        drop(inst.take());
        let t = Instant::now();
        let data = dataset(VIRTUAL_SCAN_DOCS, seed);
        let (sinew, path) = b.open_fresh(&format!("setup{i}"))?;
        b.load_durable(&sinew, &data)?;
        let secs = b.promote(&sinew, &AnalyzerPolicy::never())?;
        b.setup_s.push(t.elapsed().as_secs_f64());
        b.promote_s.push(secs);
        b.bytes_ratio(&sinew, &data)?;
        inst = Some((sinew, path, data));
    }
    let (sinew, path, data) = inst.expect("at least one set-up");
    let refs = reference(&data.docs, &data.params)?;
    paper_loop(b, sinew, &path, &data, &refs, |b, sinew| {
        let secs = b.promote(sinew, &AnalyzerPolicy::never())?;
        b.promote_s.push(secs);
        Ok(())
    })
}

/// The documents `update_mix` rewrites: their `num` lies outside the Q10
/// and Q11 ranges, and new values stay outside, so the reference counts
/// of those queries hold throughout.
fn update_targets(data: &Dataset) -> Vec<String> {
    let p = &data.params;
    let inside = |n: i64| {
        (p.agg_lo..=p.agg_lo + p.agg_width).contains(&n)
            || (p.join_lo..=p.join_lo + p.join_width).contains(&n)
    };
    data.docs
        .iter()
        .filter(|d| {
            d.get("num")
                .and_then(Value::as_int)
                .is_some_and(|n| !inside(n))
        })
        .filter_map(|d| d.get("str1").and_then(Value::as_str).map(str::to_string))
        .collect()
}

/// Values `update_mix` writes in its `w`-th write pair (the crash image's
/// tail, then one per round).
fn mix_num(w: usize) -> i64 {
    1_000_000 + w as i64
}

fn mix_tag(w: usize) -> String {
    format!("u{w}")
}

/// Acknowledged writes per `str1`: last `num` and last `sparse_555`.
type Acked = BTreeMap<String, (Option<i64>, Option<String>)>;

/// The documents write pair `w` updates: one gets a new `num`, one a new
/// `sparse_555`.
fn mix_keys(targets: &[String], w: usize) -> (&str, &str) {
    let n = targets.len();
    (&targets[w % n], &targets[(w * 7 + n / 2) % n])
}

/// The two point updates of write pair `w`.
fn mix_updates(b: &mut Bench, sinew: &Sinew, targets: &[String], w: usize, acked: &mut Acked) {
    let (k_num, k_tag) = mix_keys(targets, w);
    let writes = [
        (
            format!(
                "UPDATE nobench SET num = {} WHERE str1 = '{k_num}'",
                mix_num(w)
            ),
            k_num,
        ),
        (
            format!(
                "UPDATE nobench SET sparse_555 = '{}' WHERE str1 = '{k_tag}'",
                mix_tag(w)
            ),
            k_tag,
        ),
    ];
    for (i, (sql, key)) in writes.iter().enumerate() {
        let Some(res) = b.statement(sinew, sql) else {
            continue;
        };
        b.check(res.affected == 1, || {
            format!("{sql}: {} rows affected, expected 1", res.affected)
        });
        let entry = acked.entry(key.to_string()).or_default();
        if i == 0 {
            entry.0 = Some(mix_num(w));
        } else {
            entry.1 = Some(mix_tag(w));
        }
    }
}

/// A point read that must see the write just made.
fn mix_read(b: &mut Bench, sinew: &Sinew, column: &str, key: &str, want: Datum) {
    let sql = format!("SELECT {column} FROM nobench WHERE str1 = '{key}'");
    if let Some(r) = b.statement(sinew, &sql) {
        let got: Vec<&Datum> = r.rows.iter().map(|row| &row[0]).collect();
        b.check(got == [&want], || {
            format!("{sql}: got {got:?}, expected [{want:?}]")
        });
    }
}

/// `update_mix`: point updates of a promoted, indexed, columnar column and
/// of a reservoir key, point reads of each write, and the projection and
/// analytic queries, with timed recoveries of a crash image; then a crash
/// and a read-back of every acknowledged update.
fn update_mix(b: &mut Bench) -> Result<(), String> {
    let seed = b.settings.seed;
    let mut inst = None;
    for i in 0..SETUPS {
        drop(inst.take());
        let t = Instant::now();
        let data = dataset(UPDATE_MIX_DOCS, seed);
        let (sinew, path) = b.open_fresh(&format!("setup{i}"))?;
        b.load_durable(&sinew, &data)?;
        let secs = b.promote(&sinew, &AnalyzerPolicy::default())?;
        b.setup_s.push(t.elapsed().as_secs_f64());
        b.promote_s.push(secs);
        b.bytes_ratio(&sinew, &data)?;
        inst = Some((sinew, path, data));
    }
    let (sinew, path, data) = inst.expect("at least one set-up");
    let refs = reference(&data.docs, &data.params)?;
    let targets = update_targets(&data);
    if targets.is_empty() {
        return Err("no update_mix targets outside the Q10/Q11 ranges".into());
    }
    let p = &data.params;
    let fields = [
        locate(&sinew, "str1", AttrType::Text)?,
        locate(&sinew, "num", AttrType::Int)?,
        locate(&sinew, "sparse_555", AttrType::Text)?,
    ];
    // Write pairs 0..DURABLE_TAIL form the image's tail; the loop's round
    // r writes pair DURABLE_TAIL + r.
    let mut acked = Acked::new();
    let image = b.crash_image(&sinew, &path, |b| {
        for w in 0..DURABLE_TAIL {
            mix_updates(b, &sinew, &targets, w, &mut acked);
        }
    })?;
    let db = b.reopen(&image)?;
    b.readback_acked(&db, &fields, &acked);
    drop(db);
    let probe = |b: &mut Bench| b.probe(&image, &data);
    b.measured_rounds(&sinew, probe, |b, r| {
        let w = DURABLE_TAIL + r;
        b.pass(Class::Update, 2, |b| {
            mix_updates(b, &sinew, &targets, w, &mut acked)
        });
        let (k_num, k_tag) = mix_keys(&targets, w);
        b.pass(Class::Selection, 2, |b| {
            mix_read(b, &sinew, "num", k_num, Datum::Int(mix_num(w)));
            mix_read(b, &sinew, "sparse_555", k_tag, Datum::Text(mix_tag(w)));
        });
        b.queries(&sinew, Class::Projection, &PROJECTION, p, &refs);
        b.queries(&sinew, Class::Analytic, &ANALYTIC, p, &refs);
    })?;
    let db = b.crash(sinew, &path)?;
    b.readback_acked(&db, &fields, &acked);
    Ok(())
}

impl Bench {
    /// Check that recovered `db` holds every acknowledged `update_mix`
    /// write; `fields` locate `str1`, `num` and `sparse_555`.
    fn readback_acked(&mut self, db: &Database, fields: &[Field; 3], acked: &Acked) {
        let Some(rec) = self.scan_recovered(db) else {
            return;
        };
        let mut seen = 0usize;
        for row in &rec.rows {
            let Some(Datum::Text(key)) = read_field(&rec, row, &fields[0]) else {
                continue;
            };
            let Some((num, tag)) = acked.get(&key) else {
                continue;
            };
            seen += 1;
            if let Some(n) = num {
                let got = read_field(&rec, row, &fields[1]);
                self.check(got == Some(Datum::Int(*n)), || {
                    format!("recovered {key}: num {got:?}, acknowledged {n}")
                });
            }
            if let Some(t) = tag {
                let got = read_field(&rec, row, &fields[2]);
                self.check(got == Some(Datum::Text(t.clone())), || {
                    format!("recovered {key}: sparse_555 {got:?}, acknowledged {t}")
                });
            }
        }
        let want = acked.len();
        self.check(seen == want, || {
            format!("recovered {seen} updated rows, acknowledged {want}")
        });
    }
}

/// Run one workload in `work` (a scratch directory it may fill).
pub fn run(settings: Settings, work: &Path) -> Result<(Outcome, Tracer), String> {
    let mut b = Bench::new(settings, work.to_path_buf());
    match b.settings.workload {
        Workload::Pipeline => pipeline(&mut b)?,
        Workload::VirtualScan => virtual_scan(&mut b)?,
        Workload::UpdateMix => update_mix(&mut b)?,
    }
    let report = if b.settings.trace {
        per_layer(&b)
    } else {
        end_to_end(&b)
    };
    let Bench {
        attempted,
        failed,
        mismatches,
        errors,
        tr,
        ..
    } = b;
    Ok((
        Outcome {
            report,
            attempted,
            failed,
            mismatches,
            errors,
        },
        tr,
    ))
}

fn end_to_end(b: &Bench) -> Report {
    let mut r = Report::default();
    let lat = |c: Class| &b.latency[c as usize];
    r.median("setup_s", "s", &b.setup_s);
    r.median("load_docs_per_s", "1/s", &b.load_rate);
    r.median("promote_s", "s", &b.promote_s);
    r.median("bytes_per_input_byte", "ratio", &b.bytes_ratio);
    r.latency(
        "projection_p50_ms",
        "projection_p90_ms",
        lat(Class::Projection),
    );
    r.latency(
        "selection_p50_ms",
        "selection_p90_ms",
        lat(Class::Selection),
    );
    r.latency("analytic_p50_ms", "analytic_p90_ms", lat(Class::Analytic));
    r.latency("update_p50_ms", "update_p90_ms", lat(Class::Update));
    r.median("reopen_s", "s", &b.reopen_s);
    let ok = (b.attempted - b.failed) as f64 / b.attempted.max(1) as f64;
    r.push("ok_frac", "ratio", ok, b.attempted as usize);
    r
}

fn per_layer(b: &Bench) -> Report {
    let mut r = Report::default();
    let spans = b.tr.layer_times();
    let calls = |name: &str| spans.get(name).map_or(0, |s| s.0);
    let mean_self_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| s.2 as f64 / 1e3 / s.0 as f64)
    };
    let mean_ms = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| s.1 as f64 / 1e6 / s.0 as f64)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &b.loop_counters;
    let stmts = b.loop_statements as f64;
    let per_stmt = |name: &str| ratio(counter(c, name) as f64, stmts);

    let [untraced, traced] = &b.rounds_s;
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (median(traced) / median(untraced) - 1.0) * 100.0
    };
    r.push(
        "trace.overhead_pct",
        "%",
        overhead,
        traced.len() + untraced.len(),
    );
    r.push(
        "sql.parse_us",
        "us",
        mean_self_us("sql.parse"),
        calls("sql.parse") as usize,
    );
    r.push(
        "rewriter.rewrite_us",
        "us",
        mean_self_us("rewriter.rewrite"),
        calls("rewriter.rewrite") as usize,
    );
    r.push(
        "rewriter.virtual_refs",
        "count/stmt",
        per_stmt("rewriter.virtual_refs"),
        stmts as usize,
    );
    r.push(
        "rewriter.coalesce_refs",
        "count/stmt",
        per_stmt("rewriter.coalesce_refs"),
        stmts as usize,
    );
    r.push(
        "planner.plan_us",
        "us",
        mean_self_us("planner.plan"),
        calls("planner.plan") as usize,
    );
    let exec_ns = spans.get("exec.execute").map_or(0, |s| s.1);
    let plan_ns = spans.get("planner.plan").map_or(0, |s| s.1);
    let exec_calls = calls("exec.execute") as f64;
    let exec_self = ratio(exec_ns.saturating_sub(plan_ns) as f64 / 1e3, exec_calls);
    r.push("exec.execute_us", "us", exec_self, exec_calls as usize);
    for name in [
        "exec.heap_fetches",
        "exec.parallel_scans",
        "exec.morsels",
        "exec.join_build_rows",
    ] {
        r.push(name, "count/stmt", per_stmt(name), stmts as usize);
    }
    let selects = b.loop_selects as f64;
    let udf = ratio(counter(c, "extract.udf_calls") as f64, selects);
    r.push(
        "extract.udf_calls_per_query",
        "count/query",
        udf,
        selects as usize,
    );
    let lookups = counter(c, "extract.plan_lookups");
    let hit_rate = ratio(counter(c, "extract.plan_hits") as f64, lookups as f64);
    r.push(
        "extract.plan_cache_hit_rate",
        "ratio",
        hit_rate,
        lookups as usize,
    );
    r.push(
        "loader.load_ms",
        "ms",
        mean_ms("loader.load"),
        calls("loader.load") as usize,
    );
    let durable = mean_ms("loader.load_durable");
    r.push(
        "loader.durable_load_ms",
        "ms",
        durable,
        calls("loader.load_durable") as usize,
    );
    let load_bytes: Vec<f64> = b.load_bytes.iter().map(|&v| v as f64).collect();
    r.push("loader.bytes", "bytes", mean(&load_bytes), load_bytes.len());
    r.push(
        "analyzer.run_ms",
        "ms",
        mean_ms("analyzer.run"),
        calls("analyzer.run") as usize,
    );
    let sampled: Vec<f64> = b.rows_sampled.iter().map(|&v| v as f64).collect();
    r.push(
        "analyzer.rows_sampled",
        "count",
        mean(&sampled),
        sampled.len(),
    );
    let steps = b.tr.durations_ms("materializer.step");
    let (p50, p90) = if steps.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&steps), percentile(&steps, 0.9))
    };
    r.push("materializer.step_ms_p50", "ms", p50, steps.len());
    r.push("materializer.step_ms_p90", "ms", p90, steps.len());
    let promotions = b.promotions as f64;
    r.push(
        "materializer.steps",
        "count",
        ratio(b.steps as f64, promotions),
        b.promotions as usize,
    );
    r.push(
        "materializer.values_moved",
        "count",
        ratio(b.values_moved as f64, promotions),
        b.promotions as usize,
    );
    let useful = ratio(b.values_moved as f64, b.rows_scanned as f64);
    r.push(
        "materializer.useful_ratio",
        "ratio",
        useful,
        b.promotions as usize,
    );
    r.push(
        "materializer.txn_conflicts",
        "count",
        ratio(b.txn_conflicts as f64, promotions),
        b.promotions as usize,
    );
    let doubling = match (b.half_promote_s, b.promote_s.is_empty()) {
        (Some(half), false) => median(&b.promote_s) / half,
        _ => 0.0,
    };
    r.push(
        "materializer.doubling_ratio",
        "ratio",
        doubling,
        b.promote_s.len(),
    );
    r.push(
        "stats.analyze_ms",
        "ms",
        mean_ms("stats.analyze"),
        calls("stats.analyze") as usize,
    );
    let (stores, encoded) = b.columnar.unwrap_or((0, 0));
    r.push("columnar.stores", "count", stores as f64, 1);
    r.push("columnar.encoded_bytes", "bytes", encoded as f64, 1);
    for name in [
        "exec.columnar_scans",
        "exec.segments_pruned",
        "btree.index_scans",
        "btree.maintenance_ops",
    ] {
        r.push(name, "count/stmt", per_stmt(name), stmts as usize);
    }
    for name in [
        "txn.committed",
        "txn.aborted",
        "txn.write_conflicts",
        "txn.versions_created",
        "txn.versions_vacuumed",
        "wal.appends",
        "wal.fsyncs",
    ] {
        r.push(name, "count/stmt", per_stmt(name), stmts as usize);
    }
    let updates = b.loop_updates as f64;
    r.push(
        "wal.bytes_per_update",
        "bytes",
        ratio(counter(c, "wal.bytes") as f64, updates),
        updates as usize,
    );
    r.push(
        "wal.checkpoints",
        "count/stmt",
        per_stmt("wal.checkpoints"),
        stmts as usize,
    );
    let recovered: Vec<f64> = b.recovered_pages.iter().map(|&v| v as f64).collect();
    r.push(
        "wal.recovered_pages",
        "count",
        mean(&recovered),
        recovered.len(),
    );
    r.push(
        "pager.disk_reads",
        "count/stmt",
        per_stmt("pager.disk_reads"),
        stmts as usize,
    );
    r.push(
        "pager.disk_writes",
        "count/stmt",
        per_stmt("pager.disk_writes"),
        stmts as usize,
    );
    let hits = counter(c, "pager.cache_hits") as f64;
    let reads = counter(c, "pager.disk_reads") as f64;
    r.push(
        "pager.hit_rate",
        "ratio",
        ratio(hits, hits + reads),
        (hits + reads) as usize,
    );
    r.push(
        "db.open_ms",
        "ms",
        mean_ms("db.open"),
        calls("db.open") as usize,
    );
    r
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
