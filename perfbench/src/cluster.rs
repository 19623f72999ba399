//! `cluster`: two in-process shard workers behind a `Cluster`
//! coordinator, sharing the `service` graph (broadcast `LoadCsv`).
//!
//! One client runs a closed loop of full triangle COUNT, hub-anchored
//! triangle counts and anchored 2-hop listings. Every answer must be
//! byte-identical to the embedded single-process answer. This is the
//! only workload that measures the scatter/merge layer.

use std::path::PathBuf;
use std::time::Duration;

use eh_core::Database;
use eh_server::protocol::ServerStats;
use eh_server::{Cluster, Server, ServerOptions, ShardReport, WireDelimiter};

use crate::layers::{self, Class, WorkSummary};
use crate::service::{self, anchored, frame_deltas, socket_path, wire_digest, Inputs};
use crate::trace::Tracer;
use crate::util::{
    closed_loop, median, ms, peak_rss_mb, percentile, timed, weighted, Loop, Rng, Setups, Zipf,
};
use crate::{Opts, Report};

const SETUP_REPS: usize = 30;
const WORKERS: usize = 2;
const CLASSES: [&str; 3] = ["triangle", "hub_triangle", "two_hop"];
/// Request mix, class order: hub-anchored counts dominate so the median
/// query sits inside that class, and full counts set the tail.
const MIX: [f64; 3] = [0.2, 0.6, 0.2];
const TRIANGLE: &str = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.";

fn text(class: &str, anchor: u32) -> String {
    match class {
        "triangle" => TRIANGLE.to_string(),
        _ => anchored(class, anchor),
    }
}

struct Live {
    servers: Vec<(Server, PathBuf)>,
    cluster: Cluster,
}

impl Live {
    fn close(self) -> Result<(), String> {
        self.cluster.quit().map_err(|e| e.to_string())?;
        for (server, path) in self.servers {
            server.shutdown();
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One answer: the anchor it was asked for and a digest of its bytes.
struct Answer {
    anchor: u32,
    digest: u64,
}

/// What the coordinator reported for one scattered query.
struct Scatter {
    worker_ns: Vec<u64>,
    level0: Vec<u64>,
    sharded: bool,
}

impl Scatter {
    fn of(reports: &[ShardReport]) -> Scatter {
        Scatter {
            worker_ns: reports.iter().map(|r| r.elapsed_ns).collect(),
            level0: reports.iter().map(|r| r.level0_values).collect(),
            sharded: reports.iter().all(|r| r.sharded),
        }
    }
}

/// From no workers to the first answer of every class: bind both
/// workers, connect the coordinator, broadcast the `Edge` load.
fn setup(inp: &Inputs, firsts: &mut Vec<(usize, Result<Answer, String>)>) -> Result<Live, String> {
    let mut live = start(&inp.edge_csv)?;
    let anchor = inp.anchors[0];
    for (c, class) in CLASSES.iter().enumerate() {
        let r = live
            .cluster
            .query(&text(class, anchor))
            .map_err(|e| e.to_string())?;
        firsts.push((
            c,
            Ok(Answer {
                anchor,
                digest: wire_digest(r.raw_bytes()),
            }),
        ));
    }
    Ok(live)
}

/// Two shard workers serving `edge_csv` (a broadcast `LoadCsv` of
/// `Edge`) behind a connected coordinator.
fn start(edge_csv: &[u8]) -> Result<Live, String> {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for k in 0..WORKERS {
        let path = socket_path(&format!("worker{k}"))?;
        let addr = format!("unix:{}", path.display());
        let server = Server::bind(Database::new(), &[&addr], ServerOptions::default())
            .map_err(|e| format!("bind {addr}: {e}"))?;
        servers.push((server, path));
        addrs.push(addr);
    }
    let e = |e: eh_server::ClientError| e.to_string();
    let mut cluster = Cluster::connect(&addrs).map_err(e)?;
    cluster
        .load_csv("Edge", WireDelimiter::Comma, edge_csv.to_vec())
        .map_err(e)?;
    Ok(Live { servers, cluster })
}

/// The coordinator's closed loop over the seeded mix for `dur`.
fn mixed_loop(
    live: &mut Live,
    inp: &Inputs,
    rngs: &mut (Rng, Rng),
    dur: Duration,
    tr: Option<&Tracer>,
    scatters: &mut Vec<Scatter>,
) -> Loop<Answer> {
    let zipf = Zipf::new(inp.anchors.len());
    let (mix, anchors) = rngs;
    let pick = weighted(&MIX, mix);
    let mut next_req = 0u64;
    closed_loop(dur, CLASSES.len(), None, pick, |c| {
        let anchor = inp.anchors[zipf.sample(anchors)];
        let q = text(CLASSES[c], anchor);
        next_req += 1;
        let result = match tr {
            Some(tr) => tr.span(&format!("request.{}", CLASSES[c]), None, next_req, |_| {
                live.cluster.query(&q)
            }),
            None => live.cluster.query(&q),
        };
        if tr.is_some() {
            scatters.push(Scatter::of(live.cluster.last_reports()));
        }
        result
            .map(|r| Answer {
                anchor,
                digest: wire_digest(r.raw_bytes()),
            })
            .map_err(|e| e.to_string())
    })
}

/// Checks answers byte-for-byte against an embedded single-process
/// `Database` loaded from the same CSV bytes.
fn check_all(
    checker: &mut service::Checker,
    answers: &[(usize, Result<Answer, String>)],
    rep: &mut Report,
) -> Result<(), String> {
    for (c, answer) in answers {
        let ok = match answer {
            Ok(a) => {
                // The full triangle count has no anchor.
                let key_anchor = if CLASSES[*c] == "triangle" {
                    0
                } else {
                    a.anchor
                };
                let text = text(CLASSES[*c], a.anchor);
                checker.matches((*c, key_anchor), &text, a.digest)?
            }
            Err(_) => false,
        };
        rep.check(ok);
    }
    Ok(())
}

fn checker(inp: &Inputs) -> Result<service::Checker, String> {
    service::Checker::new(inp, Vec::new())
}

/// One representative query per class, anchored at the top hub.
fn classes(inp: &Inputs) -> Vec<Class> {
    CLASSES
        .iter()
        .map(|&c| Class::new(c, text(c, inp.anchors[0])))
        .collect()
}

/// Exact work counters of one profiled run of each class on a fresh
/// embedded database.
pub fn exact_work(seed: u64) -> Result<WorkSummary, String> {
    let inp = service::inputs(seed);
    let db = checker(&inp)?.db;
    let cfg = *db.config();
    layers::exact_work(&db, &classes(&inp), &cfg)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let inp = service::inputs(opts.seed);
    let mut rep = Report::default();
    rep.note(format!(
        "graph: Patents analog x0.5: {} nodes, {} edges on {WORKERS} workers; mix {:?} over {:?}",
        inp.graph.num_nodes,
        inp.graph.num_edges(),
        MIX,
        CLASSES
    ));
    if opts.trace {
        return traced(opts, &inp, rep);
    }
    // The first set-up serves the timed phase; the others run after the
    // memory high-water mark is read, each with fresh workers.
    let mut firsts = Vec::new();
    let mut setups = Setups::default();
    let first_setup = setups.time(|| setup(&inp, &mut firsts));
    let mut live = first_setup?;
    let mut rngs = (
        Rng::derive(opts.seed, "mix"),
        Rng::derive(opts.seed, "anchors"),
    );
    let mut phase = |dur| mixed_loop(&mut live, &inp, &mut rngs, dur, None, &mut Vec::new());
    let warm = phase(opts.seconds / 10);
    let lp = phase(opts.seconds);
    let peak_rss = peak_rss_mb();
    live.close()?;
    for _ in 1..SETUP_REPS {
        let l = setups.time(|| setup(&inp, &mut firsts));
        l?.close()?;
    }

    let mut checker = checker(&inp)?;
    check_all(&mut checker, &firsts, &mut rep)?;
    check_all(&mut checker, &warm.answers, &mut rep)?;
    check_all(&mut checker, &lp.answers, &mut rep)?;

    layers::note_host(&lp, &mut rep);
    setups.report(&mut rep);
    rep.probe_metric("throughput_qps", lp.rate(), "1/probe", lp.raw_rate(), "1/s");
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        let raw = percentile(&lp.all_ms, p);
        rep.probe_metric(name, lp.latency(p), "probe", raw, "ms");
    }
    rep.metric("peak_rss_mb", peak_rss, "MB");
    let per_class: Vec<String> = CLASSES
        .iter()
        .enumerate()
        .map(|(c, name)| {
            format!(
                "{name} n={} p50={:.3}ms",
                lp.lat_ms[c].len(),
                median(&lp.lat_ms[c])
            )
        })
        .collect();
    rep.note(format!(
        "{} queries timed: {}",
        lp.completed(),
        per_class.join(", ")
    ));
    Ok(rep)
}

fn traced(opts: &Opts, inp: &Inputs, mut rep: Report) -> Result<Report, String> {
    let tr = Tracer::new();
    let mut req = 0u64;
    let mut firsts = Vec::new();
    let mut live = tr.span("setup", None, 0, |_| setup(inp, &mut firsts))?;
    let mut rngs = (
        Rng::derive(opts.seed, "mix"),
        Rng::derive(opts.seed, "anchors"),
    );
    let phase = opts.seconds / 4;
    let plain = mixed_loop(&mut live, inp, &mut rngs, phase, None, &mut Vec::new());
    let before = live.cluster.stats().map_err(|e| e.to_string())?;
    let mut scatters = Vec::new();
    let spanned = mixed_loop(&mut live, inp, &mut rngs, phase, Some(&tr), &mut scatters);
    let after = live.cluster.stats().map_err(|e| e.to_string())?;
    live.close()?;
    layers::report_trace_overhead(&plain, &spanned, &mut rep);

    report_layers(&before, &after, &scatters, &spanned.all_ms, &mut rep);

    rep.metric(
        "storage.csv_parse_ms",
        layers::probe_csv(&tr, "Edge", &inp.edge_csv, 3, &mut req)?,
        "ms",
    );
    let mut checker = checker(inp)?;
    let classes = classes(inp);
    let db = &checker.db;
    let cfg = *db.config();
    layers::probe_pipeline(
        &tr,
        db,
        &classes,
        &cfg,
        opts.seconds / 5,
        &mut req,
        &mut rep,
    )?;
    layers::report_work(&exact_work(opts.seed)?, &mut rep);
    let texts: Vec<&str> = classes.iter().map(|c| c.text.as_str()).collect();
    layers::probe_trie_build(&tr, &[(db, &texts)], &cfg, 3, &mut req, &mut rep)?;
    layers::probe_intersect(&tr, &inp.graph, &cfg, opts.seed, 7, &mut req, &mut rep);
    layers::probe_wire(&tr, db, &classes, 50, &mut req, &mut rep)?;

    check_all(&mut checker, &firsts, &mut rep)?;
    check_all(&mut checker, &plain.answers, &mut rep)?;
    check_all(&mut checker, &spanned.answers, &mut rep)?;
    layers::write_spans(&tr, &opts.workload, opts.seed, &mut rep);
    Ok(rep)
}

/// The `server` and `cluster` layer metrics of a traced phase: service
/// time per frame kind and worker 0's plan-cache hit ratio between two
/// `Stats` snapshots; per sharded scatter, the slowest worker's time,
/// the rest of the round trip `rtt_ms` (the coordinator's share), and
/// the max/min skew of worker time and of level-0 share.
fn report_layers(
    before: &ServerStats,
    after: &ServerStats,
    scatters: &[Scatter],
    rtt_ms: &[f64],
    rep: &mut Report,
) {
    for (kind, n, ns) in frame_deltas(before, after) {
        rep.metric(
            format!("server.service_us.{kind}"),
            ns as f64 / n as f64 / 1e3,
            "us",
        );
    }
    // Worker 0's plan cache: every scatter looks its query up there.
    service::report_cache_hits(before, after, rep);
    let ratio = |v: &[u64]| {
        let max = v.iter().copied().max().unwrap_or(0) as f64;
        let min = v.iter().copied().min().unwrap_or(0) as f64;
        max / min.max(1.0)
    };
    let sharded: Vec<(&Scatter, f64)> = scatters
        .iter()
        .zip(rtt_ms)
        .filter(|(s, _)| s.sharded)
        .map(|(s, rtt)| (s, *rtt))
        .collect();
    let worker_ms: Vec<f64> = sharded
        .iter()
        .map(|(s, _)| s.worker_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6)
        .collect();
    let coord_ms: Vec<f64> = sharded
        .iter()
        .zip(&worker_ms)
        .map(|((_, rtt), w)| rtt - w)
        .collect();
    let time_skew: Vec<f64> = sharded.iter().map(|(s, _)| ratio(&s.worker_ns)).collect();
    let share_skew: Vec<f64> = sharded.iter().map(|(s, _)| ratio(&s.level0)).collect();
    rep.metric("cluster.worker_ms", median(&worker_ms), "ms");
    rep.metric("cluster.coord_overhead_ms", median(&coord_ms), "ms");
    rep.metric("cluster.time_skew", median(&time_skew), "ratio");
    rep.metric("cluster.share_skew", median(&share_skew), "ratio");
    rep.note(format!(
        "{} of {} traced scatters were sharded",
        sharded.len(),
        scatters.len()
    ));
}

/// The `server` and `cluster` layers under another workload's queries:
/// two shard workers serve `edge_csv` behind a `Cluster`; each class is
/// scattered once to warm the workers, then `rounds` times inside
/// spans, and the metrics are reported as the `cluster` workload's
/// traced run reports them. Every answer must be byte-identical to the
/// embedded single-process answer.
pub fn probe_layers(
    tr: &Tracer,
    edge_csv: &[u8],
    classes: &[Class],
    rounds: usize,
    req: &mut u64,
    rep: &mut Report,
) -> Result<(), String> {
    let db = service::embedded_db(edge_csv)?;
    let expect = classes
        .iter()
        .map(|c| service::embedded_digest(&db, &c.text))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut live = start(edge_csv)?;
    let scatter = |live: &mut Live, c: usize, rep: &mut Report| {
        let result = live.cluster.query(&classes[c].text);
        rep.check(result.is_ok_and(|r| wire_digest(r.raw_bytes()) == expect[c]));
    };
    for c in 0..classes.len() {
        scatter(&mut live, c, rep);
    }
    let before = live.cluster.stats().map_err(|e| e.to_string())?;
    let mut scatters = Vec::new();
    let mut rtt_ms = Vec::new();
    for _ in 0..rounds {
        for (c, class) in classes.iter().enumerate() {
            *req += 1;
            let name = format!("cluster.{}", class.name);
            let ((), d) = timed(|| tr.span(&name, None, *req, |_| scatter(&mut live, c, rep)));
            rtt_ms.push(ms(d));
            scatters.push(Scatter::of(live.cluster.last_reports()));
        }
    }
    let after = live.cluster.stats().map_err(|e| e.to_string())?;
    live.close()?;
    report_layers(&before, &after, &scatters, &rtt_ms, rep);
    Ok(())
}
