//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from outside, inside a span, so the layer's
//! cost is measured without changing the engine.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eh_core::{Config, CsvOptions, Database, Graph, QueryResult};
use eh_exec::{CatalogStats, PhysicalPlan, Relation, WorkCounters};
use eh_set::{choose_layout, intersect_count, Set};
use eh_storage::ResultBatch;

use crate::trace::Tracer;
use crate::util::{median, Loop, Rng};
use crate::Report;

/// One query class of a workload: a name for the metrics and a
/// representative query text.
pub struct Class {
    pub name: &'static str,
    pub text: String,
}

impl Class {
    pub fn new(name: &'static str, text: impl Into<String>) -> Class {
        Class {
            name,
            text: text.into(),
        }
    }
}

/// The answer a query class should report for checking: the COUNT
/// scalar for aggregates, the row count otherwise.
pub fn tuples_of(result: &QueryResult) -> u64 {
    result
        .scalar_u64()
        .unwrap_or_else(|| result.num_rows() as u64)
}

/// Parse → GHD plan → compile → execute for every class, round after
/// round until `budget` has passed (at least three rounds). Reports
/// `query.parse_us`, `ghd.plan_us`, `exec.compile_us` and
/// `exec.execute_ms.<class>` as medians over the rounds.
pub fn probe_pipeline(
    tr: &Tracer,
    db: &Database,
    classes: &[Class],
    cfg: &Config,
    budget: Duration,
    req: &mut u64,
    rep: &mut Report,
) -> Result<(), String> {
    let catalog = db.catalog();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget {
        for class in classes {
            *req += 1;
            let request = *req;
            tr.span(&format!("probe.{}", class.name), None, request, |root| {
                let program = tr
                    .span("query.parse", Some(root), request, |_| {
                        eh_query::parse_program(&class.text)
                    })
                    .map_err(|e| e.to_string())?;
                let rule = &program.rules[0];
                let ghd = tr.span("ghd.plan", Some(root), request, |_| {
                    eh_ghd::plan_rule_with_stats(rule, &cfg.plan, &CatalogStats(catalog))
                })?;
                let plan = tr.span("exec.compile", Some(root), request, |_| {
                    PhysicalPlan::compile(rule, &ghd)
                });
                let out = tr.span(
                    &format!("exec.execute.{}", class.name),
                    Some(root),
                    request,
                    |_| eh_exec::execute_plan_profiled(&plan, catalog, cfg),
                );
                black_box(out.map_err(|e| e.to_string())?);
                Ok::<(), String>(())
            })?;
        }
        rounds += 1;
    }
    rep.metric(
        "query.parse_us",
        median(&tr.durations_ns("query.parse")) / 1e3,
        "us",
    );
    rep.metric(
        "ghd.plan_us",
        median(&tr.durations_ns("ghd.plan")) / 1e3,
        "us",
    );
    rep.metric(
        "exec.compile_us",
        median(&tr.durations_ns("exec.compile")) / 1e3,
        "us",
    );
    for class in classes {
        let d = tr.durations_ns(&format!("exec.execute.{}", class.name));
        rep.metric(
            format!("exec.execute_ms.{}", class.name),
            median(&d) / 1e6,
            "ms",
        );
    }
    rep.note(format!(
        "pipeline probe: {rounds} rounds over {} classes",
        classes.len()
    ));
    Ok(())
}

/// Work counters from one profiled execution of every class: exact
/// (they repeat bit-for-bit for one seed), so they can gate a change
/// exactly.
#[derive(Debug, PartialEq)]
pub struct WorkSummary {
    pub work: WorkCounters,
    /// Answer tuples counted across the classes (COUNT values, or rows).
    pub tuples: u64,
    /// `(class, q-error of the planner's estimated work)`.
    pub qerror: Vec<(&'static str, f64)>,
    /// Level-0 values handled per worker slot, summed over classes.
    pub worker_values: Vec<u64>,
}

pub fn exact_work(db: &Database, classes: &[Class], cfg: &Config) -> Result<WorkSummary, String> {
    let profiled = cfg.with_profile(true);
    let mut sum = WorkSummary {
        work: WorkCounters::default(),
        tuples: 0,
        qerror: Vec::new(),
        worker_values: Vec::new(),
    };
    for class in classes {
        let stmt = db.prepare(&class.text).map_err(|e| e.to_string())?;
        let result = stmt
            .execute_with(db, &profiled)
            .map_err(|e| e.to_string())?;
        let profile = result
            .profile()
            .ok_or_else(|| format!("{}: no profile from a profiled run", class.name))?;
        sum.work.merge(&profile.work);
        sum.tuples += tuples_of(&result);
        if let Some(est) = profile.estimated_work {
            let obs = profile.work.values_scanned.max(1) as f64;
            let est = est.max(1.0);
            sum.qerror.push((class.name, (est / obs).max(obs / est)));
        }
        for node in &profile.nodes {
            if sum.worker_values.len() < node.workers.len() {
                sum.worker_values.resize(node.workers.len(), 0);
            }
            for (slot, w) in sum.worker_values.iter_mut().zip(&node.workers) {
                *slot += w.values;
            }
        }
    }
    Ok(sum)
}

pub fn report_work(sum: &WorkSummary, rep: &mut Report) {
    let w = &sum.work;
    rep.metric("exec.values_scanned", w.values_scanned as f64, "count");
    rep.metric("exec.intersections", w.intersections as f64, "count");
    rep.metric("exec.count_fast_hits", w.count_fast_hits as f64, "count");
    rep.metric("set.merge_kernels", w.merge_kernels as f64, "count");
    rep.metric("set.gallop_kernels", w.gallop_kernels as f64, "count");
    rep.metric("set.bitset_kernels", w.bitset_kernels as f64, "count");
    rep.metric(
        "exec.yield_ratio",
        sum.tuples as f64 / w.values_scanned.max(1) as f64,
        "ratio",
    );
    for (class, q) in &sum.qerror {
        rep.metric(format!("ghd.estimate_qerror.{class}"), *q, "ratio");
    }
}

/// `exec.worker_imbalance`: the largest worker's level-0 values over
/// the mean, when more than one worker ran.
pub fn report_imbalance(sum: &WorkSummary, rep: &mut Report) {
    let values: Vec<f64> = sum.worker_values.iter().map(|&v| v as f64).collect();
    if values.len() > 1 {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let max = values.iter().cloned().fold(0.0, f64::max);
        rep.metric("exec.worker_imbalance", max / mean.max(1.0), "ratio");
    }
}

/// Cold trie builds for every `(relation, attribute order)` that the
/// plans of each source's texts (each a program of one or more rules)
/// use on that source's database: each order is built from a fresh copy
/// of the relation so no cached trie is reused. Reports `trie.build_ms`, the median over `reps` of the total
/// build time.
pub fn probe_trie_build(
    tr: &Tracer,
    sources: &[(&Database, &[&str])],
    cfg: &Config,
    reps: usize,
    req: &mut u64,
    rep: &mut Report,
) -> Result<(), String> {
    let mut orders = BTreeSet::new();
    for (source, (db, texts)) in sources.iter().enumerate() {
        for text in texts.iter() {
            let program = eh_query::parse_program(text).map_err(|e| e.to_string())?;
            for rule in &program.rules {
                let stats = CatalogStats(db.catalog());
                let ghd = eh_ghd::plan_rule_with_stats(rule, &cfg.plan, &stats)?;
                for node in &PhysicalPlan::compile(rule, &ghd).nodes {
                    for atom in &node.atoms {
                        orders.insert((source, atom.relation.clone(), atom.trie_order.clone()));
                    }
                }
            }
        }
    }
    let threads = cfg.effective_threads();
    for _ in 0..reps {
        *req += 1;
        let request = *req;
        tr.span("trie.build_all", None, request, |root| {
            for (source, name, order) in &orders {
                let rel = sources[*source]
                    .0
                    .relation(name)
                    .ok_or_else(|| format!("relation {name} missing"))?;
                let cold = Relation::from_buffer(rel.rows().clone(), rel.combine());
                tr.span("trie.build", Some(root), request, |_| {
                    black_box(cold.trie_threads(order, cfg.layout_policy, threads));
                });
            }
            Ok::<(), String>(())
        })?;
    }
    rep.metric(
        "trie.build_ms",
        median(&tr.durations_ns("trie.build_all")) / 1e6,
        "ms",
    );
    rep.note(format!(
        "trie probe: {} attribute orders x {reps}",
        orders.len()
    ));
    Ok(())
}

/// `eh_set::intersect_count` on a seeded sample of neighbour-set pairs
/// (the two endpoints of sampled edges), with layouts chosen by
/// `choose_layout`. Reports `set.intersect_ns_per_value`: time per
/// input value, median over passes.
pub fn probe_intersect(
    tr: &Tracer,
    graph: &Graph,
    cfg: &Config,
    seed: u64,
    passes: usize,
    req: &mut u64,
    rep: &mut Report,
) {
    let csr = graph.to_csr();
    let mut rng = Rng::derive(seed, "intersect-sample");
    let mut sets: Vec<(Set, Set)> = Vec::new();
    let mut values = 0u64;
    let mut attempts = 0;
    while sets.len() < 4096 && attempts < 100_000 && !graph.edges.is_empty() {
        attempts += 1;
        let (v, w) = graph.edges[rng.below(graph.edges.len() as u64) as usize];
        let (a, b) = (csr.neighbors(v), csr.neighbors(w));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        values += (a.len() + b.len()) as u64;
        sets.push((
            Set::from_sorted(a, choose_layout(a)),
            Set::from_sorted(b, choose_layout(b)),
        ));
    }
    for _ in 0..passes {
        *req += 1;
        tr.span("set.intersect", None, *req, |_| {
            let mut total = 0usize;
            for (a, b) in &sets {
                total += intersect_count(black_box(a), black_box(b), &cfg.intersect);
            }
            black_box(total)
        });
    }
    let per_pass = median(&tr.durations_ns("set.intersect"));
    rep.metric(
        "set.intersect_ns_per_value",
        per_pass / values.max(1) as f64,
        "ns",
    );
    rep.note(format!(
        "intersect probe: {} set pairs, {values} values, {passes} passes",
        sets.len()
    ));
}

/// Wire encoding of each class's result as a `ResultBatch`: reports
/// `storage.encode_us` and `storage.decode_us` (mean per result, median
/// over rounds) and `storage.bytes_per_row`.
pub fn probe_wire(
    tr: &Tracer,
    db: &Database,
    classes: &[Class],
    rounds: usize,
    req: &mut u64,
    rep: &mut Report,
) -> Result<(), String> {
    let mut batches = Vec::new();
    for class in classes {
        let stmt = db.prepare(&class.text).map_err(|e| e.to_string())?;
        let result = stmt.execute(db).map_err(|e| e.to_string())?;
        batches.push(eh_server::batch_from_result(db, &result));
    }
    let mut bytes = 0;
    for _ in 0..rounds {
        *req += 1;
        let request = *req;
        let encoded: Vec<Vec<u8>> = tr.span("storage.encode", None, request, |_| {
            batches
                .iter()
                .map(|b| b.encode().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()
        })?;
        tr.span("storage.decode", None, request, |_| {
            for e in &encoded {
                black_box(ResultBatch::decode(e).map_err(|e| e.to_string())?);
            }
            Ok::<(), String>(())
        })?;
        bytes = encoded.iter().map(|e| e.len()).sum::<usize>();
    }
    let rows: usize = batches.iter().map(|b| b.num_rows()).sum();
    let n = batches.len().max(1) as f64;
    rep.metric(
        "storage.encode_us",
        median(&tr.durations_ns("storage.encode")) / 1e3 / n,
        "us",
    );
    rep.metric(
        "storage.decode_us",
        median(&tr.durations_ns("storage.decode")) / 1e3 / n,
        "us",
    );
    rep.metric(
        "storage.bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        "bytes",
    );
    Ok(())
}

/// `Database::load_csv_reader` off-server: `bytes` loaded as `relation`
/// into a fresh database `reps` times. Returns the median in ms.
pub fn probe_csv(
    tr: &Tracer,
    relation: &str,
    bytes: &[u8],
    reps: usize,
    req: &mut u64,
) -> Result<f64, String> {
    let name = format!("storage.csv_parse.{relation}");
    for _ in 0..reps {
        *req += 1;
        let mut db = Database::new();
        tr.span(&name, None, *req, |_| {
            db.load_csv_reader(relation, std::io::Cursor::new(bytes), &CsvOptions::csv())
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(median(&tr.durations_ns(&name)) / 1e6)
}

/// Write the traced run's spans under `.bench_out/` in the working
/// directory and note where they went.
pub fn write_spans(tr: &Tracer, workload: &str, seed: u64, rep: &mut Report) {
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => rep.note(format!("{} spans written to {}", tr.len(), path.display())),
        Err(e) => rep.note(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Note the loop's host probes.
pub fn note_host<T>(lp: &Loop<T>, rep: &mut Report) {
    rep.note(format!(
        "host probe: median {:.4} ms over {} probes ({} dropped as overlapped)",
        median(&lp.probe_ms),
        lp.probe_ms.len(),
        lp.probes_dropped
    ));
}

/// `obs.trace_overhead_frac`: per class, the median request time (in
/// probe units) of a loop with request spans against the same loop without
/// them; the mean of those ratios, minus one. Also reports
/// `host.probe_ms`, the median host probe of both loops.
pub fn report_trace_overhead<T, U>(plain: &Loop<T>, spanned: &Loop<U>, rep: &mut Report) {
    let ratios: Vec<f64> = (0..plain.lat_ms.len())
        .filter(|&c| !plain.lat_ms[c].is_empty() && !spanned.lat_ms[c].is_empty())
        .map(|c| spanned.class_median(c) / plain.class_median(c))
        .collect();
    let frac = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64 - 1.0;
    rep.metric("obs.trace_overhead_frac", frac, "frac");
    let probes: Vec<f64> = plain
        .probe_ms
        .iter()
        .chain(&spanned.probe_ms)
        .copied()
        .collect();
    rep.metric("host.probe_ms", median(&probes), "ms");
    rep.note(format!(
        "trace overhead: {} untraced vs {} traced requests",
        plain.completed(),
        spanned.completed()
    ));
}
