//! `service`: an in-process `Server` on a Unix socket with two
//! connections, a reader in a closed loop and a writer on a schedule.
//!
//! Patents-analog shape at 0.5 scale (19,000 nodes, 82,500 undirected
//! edges), loaded as CSV through `LoadCsv`. The reader draws requests
//! from a seeded mix of point lookups, hub-anchored triangle counts, a
//! prepared COUNT joining the small `Recent` relation, and 2-hop
//! listings; anchors are Zipf-distributed over the 512 highest-degree
//! nodes, 8x the default 64-plan cache. The writer replaces `Recent`
//! (200 rows) every 40 ms, open loop; each write flushes the plan cache.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eh_core::{CsvOptions, Database, Graph};
use eh_server::protocol::ServerStats;
use eh_server::{EhClient, Server, ServerOptions, StatementHandle, WireDelimiter};

use crate::layers::{self, Class, WorkSummary};
use crate::trace::Tracer;
use crate::util::{
    analog, closed_loop, digest, median, ms, peak_rss_mb, percentile, weighted, Loop, Rng, Setups,
    Zipf,
};
use crate::{Opts, Report};

const SETUP_REPS: usize = 30;
/// Anchors are drawn from this many highest-degree nodes.
const ANCHORS: usize = 512;
const RECENT_ROWS: usize = 200;
const WRITE_EVERY: Duration = Duration::from_millis(40);
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);
/// Request mix, class order: lookups dominate so the median read sits
/// inside one class (the lookup class), not on a class boundary.
const MIX: [f64; 4] = [0.70, 0.10, 0.10, 0.10];
const CLASSES: [&str; 4] = ["lookup", "hub_triangle", "recent_count", "two_hop"];
const RECENT_COUNT: &str = "RC(;w:long) :- Recent(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.";

/// Inputs shared with the `cluster` workload.
pub struct Inputs {
    pub graph: Graph,
    pub edge_csv: Vec<u8>,
    /// Highest-degree nodes first.
    pub anchors: Vec<u32>,
}

/// `g`'s edges as the CSV bytes a `LoadCsv` of `Edge` sends.
pub fn edge_csv(g: &Graph) -> Vec<u8> {
    let mut csv = String::from("src:u32,dst:u32\n");
    for (s, d) in &g.edges {
        csv.push_str(&format!("{s},{d}\n"));
    }
    csv.into_bytes()
}

pub fn inputs(seed: u64) -> Inputs {
    let graph = analog("Patents", 0.5, seed);
    let edge_csv = edge_csv(&graph);
    let degree = graph.degrees();
    let mut nodes: Vec<u32> = (0..graph.num_nodes).collect();
    nodes.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));
    nodes.truncate(ANCHORS);
    Inputs {
        graph,
        edge_csv,
        anchors: nodes,
    }
}

/// Query text of an anchored class.
pub fn anchored(class: &str, k: u32) -> String {
    match class {
        "lookup" => format!("N(y) :- Edge('{k}',y)."),
        "hub_triangle" => {
            format!("HT(;w:long) :- Edge('{k}',y),Edge(y,z),Edge('{k}',z); w=<<COUNT(*)>>.")
        }
        "two_hop" => format!("P(z) :- Edge('{k}',y),Edge(y,z)."),
        _ => unreachable!("not an anchored class: {class}"),
    }
}

/// Version `v` of `Recent`: 200 edges sampled from the graph.
fn recent_csv(g: &Graph, seed: u64, v: u64) -> Vec<u8> {
    let mut rng = Rng::derive(seed ^ v.wrapping_mul(0x9E37_79B9), "recent");
    let mut s = String::from("src:u32,dst:u32\n");
    for _ in 0..RECENT_ROWS {
        let (a, b) = g.edges[rng.below(g.edges.len() as u64) as usize];
        s.push_str(&format!("{a},{b}\n"));
    }
    s.into_bytes()
}

/// A socket path inside the working directory, unique to this process.
pub fn socket_path(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{tag}-{}.sock", std::process::id())))
}

/// The single-process reference: an embedded `Database` holding `Edge`
/// loaded from the same CSV bytes the server gets.
pub fn embedded_db(edge_csv: &[u8]) -> Result<Database, String> {
    let mut db = Database::new();
    db.load_csv_reader("Edge", std::io::Cursor::new(edge_csv), &CsvOptions::csv())
        .map_err(|e| e.to_string())?;
    Ok(db)
}

/// A digest of a wire result: the exact bytes the server sent.
pub fn wire_digest(bytes: &[u8]) -> u64 {
    digest(bytes.iter().copied())
}

/// The same digest for an embedded answer, encoded as the server would.
pub fn embedded_digest(db: &Database, text: &str) -> Result<u64, String> {
    let stmt = db.prepare(text).map_err(|e| e.to_string())?;
    let result = stmt.execute(db).map_err(|e| e.to_string())?;
    let bytes = eh_server::batch_from_result(db, &result)
        .encode()
        .map_err(|e| e.to_string())?;
    Ok(wire_digest(&bytes))
}

struct Live {
    server: Server,
    path: PathBuf,
    reader: EhClient,
    writer: EhClient,
    recent: StatementHandle,
}

impl Live {
    fn close(self) -> Result<(), String> {
        self.reader.quit().map_err(|e| e.to_string())?;
        self.writer.quit().map_err(|e| e.to_string())?;
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

/// One read: which class, which anchor, what came back, and the window
/// of `Recent` versions it may have seen.
struct Read {
    anchor: u32,
    digest: u64,
    versions: (u64, u64),
}

/// From no server to the first answer of every class: bind, connect,
/// load `Edge` and `Recent` over the wire, prepare the `Recent` count.
fn setup(
    inp: &Inputs,
    recent0: &[u8],
    firsts: &mut Vec<(usize, Result<Read, String>)>,
) -> Result<Live, String> {
    let path = socket_path("service")?;
    let addr = format!("unix:{}", path.display());
    let server = Server::bind(Database::new(), &[&addr], ServerOptions::default())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let e = |e: eh_server::ClientError| e.to_string();
    let mut reader = EhClient::connect(&addr).map_err(e)?;
    let mut writer = EhClient::connect(&addr).map_err(e)?;
    reader
        .load_csv("Edge", WireDelimiter::Comma, inp.edge_csv.clone())
        .map_err(e)?;
    writer
        .load_csv("Recent", WireDelimiter::Comma, recent0.to_vec())
        .map_err(e)?;
    let recent = reader.prepare(RECENT_COUNT).map_err(e)?;
    let anchor = inp.anchors[0];
    for (c, class) in CLASSES.iter().enumerate() {
        let result = match *class {
            "recent_count" => reader.exec(recent),
            _ => reader.query(&anchored(class, anchor)),
        };
        let read = result.map_err(e)?;
        firsts.push((
            c,
            Ok(Read {
                anchor,
                digest: wire_digest(read.raw_bytes()),
                versions: (0, 0),
            }),
        ));
    }
    Ok(Live {
        server,
        path,
        reader,
        writer,
        recent,
    })
}

/// What the writer observed: per-write latency from the scheduled send
/// time, and how late sends left.
struct Writes {
    latency_ms: Vec<f64>,
    /// When each write completed, seconds from the writer's start.
    done_s: Vec<f64>,
    late_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    ok: Vec<bool>,
}

/// Versions: `started` counts writes sent, `done` writes acknowledged.
/// `busy` is odd from just before a write is due until it is
/// acknowledged; the reader takes no host probe then.
#[derive(Default)]
struct Versions {
    started: AtomicU64,
    done: AtomicU64,
    busy: AtomicU64,
}

/// The open-loop writer: write `i` is due at `t0 + i * WRITE_EVERY`.
fn writer_loop(
    writer: &mut EhClient,
    csvs: &[Vec<u8>],
    versions: &Versions,
    stop: &AtomicBool,
    tr: Option<&Tracer>,
) -> Writes {
    let mut out = Writes {
        latency_ms: Vec::new(),
        done_s: Vec::new(),
        late_ms: Vec::new(),
        rtt_ms: Vec::new(),
        ok: Vec::new(),
    };
    let t0 = Instant::now();
    let base = versions.done.load(Ordering::SeqCst);
    for i in 1.. {
        let v = base + i;
        let Some(csv) = csvs.get(v as usize) else {
            break;
        };
        let due = t0 + WRITE_EVERY * i as u32;
        // Sleep until just before the write is due, then spin: a write
        // leaving after a scheduler wake-up would add the generator's own
        // lateness (bimodal on two busy vCPUs) to the write latency.
        while Instant::now() + SPIN_BEFORE_DUE < due {
            if stop.load(Ordering::SeqCst) {
                return out;
            }
            let wait = (due - SPIN_BEFORE_DUE).saturating_duration_since(Instant::now());
            std::thread::sleep(wait.min(Duration::from_millis(5)));
        }
        versions.busy.fetch_add(1, Ordering::SeqCst);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if stop.load(Ordering::SeqCst) {
            versions.busy.fetch_add(1, Ordering::SeqCst);
            break;
        }
        let sent = Instant::now();
        versions.started.store(v, Ordering::SeqCst);
        let mut send = || writer.load_csv("Recent", WireDelimiter::Comma, csv.clone());
        let result = match tr {
            Some(tr) => tr.span("request.write", None, 2_000_000 + v, |_| send()),
            None => send(),
        };
        let done = Instant::now();
        versions.done.store(v, Ordering::SeqCst);
        versions.busy.fetch_add(1, Ordering::SeqCst);
        out.ok.push(result.is_ok());
        out.latency_ms.push(ms(done - due));
        out.done_s.push((done - t0).as_secs_f64());
        out.late_ms.push(ms(sent - due));
        out.rtt_ms.push(ms(done - sent));
    }
    out
}

/// The reader's closed loop over the seeded mix, concurrent with the
/// writer, for `dur`.
fn mixed_loop(
    live: &mut Live,
    inp: &Inputs,
    csvs: &[Vec<u8>],
    versions: &Versions,
    rngs: &mut (Rng, Rng),
    dur: Duration,
    tr: Option<&Tracer>,
) -> (Loop<Read>, Writes) {
    let zipf = Zipf::new(inp.anchors.len());
    let stop = AtomicBool::new(false);
    let Live {
        reader,
        writer,
        recent,
        ..
    } = live;
    let recent = *recent;
    std::thread::scope(|s| {
        let w = s.spawn(|| writer_loop(writer, csvs, versions, &stop, tr));
        let (mix, anchors) = rngs;
        let mut next_req = 0u64;
        let pick = weighted(&MIX, mix);
        let lp = closed_loop(dur, CLASSES.len(), Some(&versions.busy), pick, |c| {
            let anchor = inp.anchors[zipf.sample(anchors)];
            let lo = versions.done.load(Ordering::SeqCst);
            next_req += 1;
            let mut send = || match CLASSES[c] {
                "recent_count" => reader.exec(recent),
                class => reader.query(&anchored(class, anchor)),
            };
            let result = match tr {
                Some(tr) => tr.span(&format!("request.{}", CLASSES[c]), None, next_req, |_| {
                    send()
                }),
                None => send(),
            };
            let hi = versions.started.load(Ordering::SeqCst);
            result
                .map(|r| Read {
                    anchor,
                    digest: wire_digest(r.raw_bytes()),
                    versions: (lo, hi),
                })
                .map_err(|e| e.to_string())
        });
        stop.store(true, Ordering::SeqCst);
        let writes = w.join().expect("writer thread panicked");
        (lp, writes)
    })
}

/// Checks every read against an embedded `Database` loaded with the
/// same CSV bytes: anchored classes against the embedded answer, the
/// `Recent` count against the embedded answer for some version of
/// `Recent` the read could have seen. The `cluster` workload checks its
/// answers through [`Checker::matches`] too.
pub struct Checker {
    pub db: Database,
    csvs: Vec<Vec<u8>>,
    anchored: HashMap<(usize, u32), u64>,
    recent: HashMap<u64, u64>,
}

impl Checker {
    /// `csvs[v]` is version `v` of `Recent` (none for `cluster`).
    pub fn new(inp: &Inputs, csvs: Vec<Vec<u8>>) -> Result<Checker, String> {
        Ok(Checker {
            db: embedded_db(&inp.edge_csv)?,
            csvs,
            anchored: HashMap::new(),
            recent: HashMap::new(),
        })
    }

    fn recent_digest(&mut self, v: u64) -> Result<u64, String> {
        if let Some(d) = self.recent.get(&v) {
            return Ok(*d);
        }
        let csv = self.csvs.get(v as usize).ok_or("version out of range")?;
        self.db
            .load_csv_reader("Recent", std::io::Cursor::new(csv), &CsvOptions::csv())
            .map_err(|e| e.to_string())?;
        let d = embedded_digest(&self.db, RECENT_COUNT)?;
        self.recent.insert(v, d);
        Ok(d)
    }

    fn ok(&mut self, class: usize, read: &Read) -> Result<bool, String> {
        if CLASSES[class] == "recent_count" {
            for v in read.versions.0..=read.versions.1 {
                if self.recent_digest(v)? == read.digest {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        let text = anchored(CLASSES[class], read.anchor);
        self.matches((class, read.anchor), &text, read.digest)
    }

    /// Whether `digest` is the embedded answer to `text`; the answer is
    /// computed once per `key` (class and anchor).
    pub fn matches(&mut self, key: (usize, u32), text: &str, digest: u64) -> Result<bool, String> {
        let d = match self.anchored.get(&key) {
            Some(d) => *d,
            None => {
                let d = embedded_digest(&self.db, text)?;
                self.anchored.insert(key, d);
                d
            }
        };
        Ok(d == digest)
    }

    fn check_all(
        &mut self,
        answers: &[(usize, Result<Read, String>)],
        rep: &mut Report,
    ) -> Result<(), String> {
        for (class, answer) in answers {
            let ok = match answer {
                Ok(read) => self.ok(*class, read)?,
                Err(_) => false,
            };
            rep.check(ok);
        }
        Ok(())
    }
}

fn check_writes(w: &Writes, rep: &mut Report) {
    for ok in &w.ok {
        rep.check(*ok);
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let inp = inputs(opts.seed);
    let writes = (opts.seconds.as_secs_f64() * 2.0 / WRITE_EVERY.as_secs_f64()) as u64 + 4;
    let csvs: Vec<Vec<u8>> = (0..=writes)
        .map(|v| recent_csv(&inp.graph, opts.seed, v))
        .collect();
    let mut rep = Report::default();
    rep.note(format!(
        "graph: Patents analog x0.5: {} nodes, {} edges, {} CSV bytes; mix {:?} over {:?}",
        inp.graph.num_nodes,
        inp.graph.num_edges(),
        inp.edge_csv.len(),
        MIX,
        CLASSES
    ));
    if opts.trace {
        return traced(opts, &inp, csvs, rep);
    }
    // The first set-up serves the timed phase; the others run after the
    // memory high-water mark is read, each with a fresh server.
    let mut firsts = Vec::new();
    let mut setups = Setups::default();
    let first_setup = setups.time(|| setup(&inp, &csvs[0], &mut firsts));
    let mut live = first_setup?;
    let versions = Versions::default();
    let mut rngs = (
        Rng::derive(opts.seed, "mix"),
        Rng::derive(opts.seed, "anchors"),
    );
    let mut phase = |dur| mixed_loop(&mut live, &inp, &csvs, &versions, &mut rngs, dur, None);
    let (warm, warm_w) = phase(opts.seconds / 10);
    let (lp, w) = phase(opts.seconds);
    let peak_rss = peak_rss_mb();
    let stats = live.reader.stats().map_err(|e| e.to_string())?;
    live.close()?;
    for _ in 1..SETUP_REPS {
        let l = setups.time(|| setup(&inp, &csvs[0], &mut firsts));
        l?.close()?;
    }

    let mut checker = Checker::new(&inp, csvs)?;
    checker.check_all(&firsts, &mut rep)?;
    checker.check_all(&warm.answers, &mut rep)?;
    checker.check_all(&lp.answers, &mut rep)?;
    check_writes(&warm_w, &mut rep);
    check_writes(&w, &mut rep);

    layers::note_host(&lp, &mut rep);
    setups.report(&mut rep);
    rep.probe_metric("throughput_qps", lp.rate(), "1/probe", lp.raw_rate(), "1/s");
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        let raw = percentile(&lp.all_ms, p);
        rep.probe_metric(name, lp.latency(p), "probe", raw, "ms");
    }
    let writes = lp.in_probes(&w.done_s, &w.latency_ms);
    for (name, p) in [("write_p50_ms", 50.0), ("write_p90_ms", 90.0)] {
        let raw = percentile(&w.latency_ms, p);
        rep.probe_metric(name, percentile(&writes, p), "probe", raw, "ms");
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
        "{} reads timed: {}",
        lp.completed(),
        per_class.join(", ")
    ));
    rep.note(format!(
        "{} writes, latest send {:.3} ms after due; plan cache {} hits / {} misses",
        w.latency_ms.len(),
        w.late_ms.iter().cloned().fold(0.0, f64::max),
        stats.cache_hits,
        stats.cache_misses
    ));
    Ok(rep)
}

/// `server.cache_hit_ratio`: plan-cache hits over lookups between two
/// `Stats` snapshots.
pub fn report_cache_hits(before: &ServerStats, after: &ServerStats, rep: &mut Report) {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    rep.metric(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
}

/// Server-side service time per frame kind between two `Stats`
/// snapshots: `(kind, frames, total ns)`.
pub fn frame_deltas(before: &ServerStats, after: &ServerStats) -> Vec<(String, u64, u64)> {
    let frames = |s: &ServerStats| -> HashMap<String, (u64, u64)> {
        s.ext
            .iter()
            .flat_map(|e| e.frames.iter())
            .map(|f| (f.name.clone(), (f.count, f.total_ns)))
            .collect()
    };
    let (b, a) = (frames(before), frames(after));
    let mut out: Vec<(String, u64, u64)> = a
        .into_iter()
        .map(|(k, (n, t))| {
            let (n0, t0) = b.get(&k).copied().unwrap_or((0, 0));
            (k, n - n0, t - t0)
        })
        // `stats` frames are the benchmark's own snapshots.
        .filter(|(k, n, _)| *n > 0 && k != "stats")
        .collect();
    out.sort();
    out
}

fn traced(
    opts: &Opts,
    inp: &Inputs,
    csvs: Vec<Vec<u8>>,
    mut rep: Report,
) -> Result<Report, String> {
    let tr = Tracer::new();
    let mut req = 0u64;
    let mut firsts = Vec::new();
    let mut live = tr.span("setup", None, 0, |_| setup(inp, &csvs[0], &mut firsts))?;
    let versions = Versions::default();
    let mut rngs = (
        Rng::derive(opts.seed, "mix"),
        Rng::derive(opts.seed, "anchors"),
    );
    let phase = opts.seconds / 4;
    let (plain, plain_w) = mixed_loop(&mut live, inp, &csvs, &versions, &mut rngs, phase, None);
    let before = live.reader.stats().map_err(|e| e.to_string())?;
    let (spanned, spanned_w) = mixed_loop(
        &mut live,
        inp,
        &csvs,
        &versions,
        &mut rngs,
        phase,
        Some(&tr),
    );
    let after = live.reader.stats().map_err(|e| e.to_string())?;
    live.close()?;
    layers::report_trace_overhead(&plain, &spanned, &mut rep);

    let deltas = frame_deltas(&before, &after);
    let (mut read_frames, mut read_ns) = (0u64, 0u64);
    for (kind, n, ns) in &deltas {
        rep.metric(
            format!("server.service_us.{kind}"),
            *ns as f64 / *n as f64 / 1e3,
            "us",
        );
        if kind == "query" || kind == "exec_prepared" {
            read_frames += n;
            read_ns += ns;
        }
    }
    let mean_rtt_us = spanned.all_ms.iter().sum::<f64>() * 1e3 / spanned.completed().max(1) as f64;
    rep.metric(
        "server.overhead_us",
        mean_rtt_us - read_ns as f64 / read_frames.max(1) as f64 / 1e3,
        "us",
    );
    report_cache_hits(&before, &after, &mut rep);
    rep.metric(
        "server.cache_invalidations",
        (after.cache_invalidations - before.cache_invalidations) as f64,
        "count",
    );

    // Off-server probes on an embedded database with the same data.
    let mut checker = Checker::new(inp, csvs)?;
    let edge_ms = layers::probe_csv(&tr, "Edge", &inp.edge_csv, 3, &mut req)?;
    let recent_ms = layers::probe_csv(&tr, "Recent", &checker.csvs[0], 20, &mut req)?;
    rep.metric("storage.csv_parse_ms", edge_ms, "ms");
    rep.metric("storage.csv_parse_ms.recent", recent_ms, "ms");
    rep.metric(
        "server.write_wait_ms",
        median(&spanned_w.rtt_ms) - recent_ms,
        "ms",
    );
    checker.recent_digest(0)?;
    let classes = classes(inp);
    let db = &checker.db;
    layers::probe_pipeline(
        &tr,
        db,
        &classes,
        db.config(),
        opts.seconds / 5,
        &mut req,
        &mut rep,
    )?;
    layers::report_work(&exact_work(opts.seed)?, &mut rep);
    let texts: Vec<&str> = classes.iter().map(|c| c.text.as_str()).collect();
    layers::probe_trie_build(&tr, &[(db, &texts)], db.config(), 3, &mut req, &mut rep)?;
    layers::probe_intersect(
        &tr,
        &inp.graph,
        db.config(),
        opts.seed,
        7,
        &mut req,
        &mut rep,
    );
    layers::probe_wire(&tr, db, &classes, 50, &mut req, &mut rep)?;

    checker.check_all(&firsts, &mut rep)?;
    checker.check_all(&plain.answers, &mut rep)?;
    checker.check_all(&spanned.answers, &mut rep)?;
    check_writes(&plain_w, &mut rep);
    check_writes(&spanned_w, &mut rep);
    layers::write_spans(&tr, &opts.workload, opts.seed, &mut rep);
    Ok(rep)
}

/// Exact work counters of one profiled run of each class on a fresh
/// embedded database holding the first data version.
pub fn exact_work(seed: u64) -> Result<WorkSummary, String> {
    let inp = inputs(seed);
    let mut checker = Checker::new(&inp, vec![recent_csv(&inp.graph, seed, 0)])?;
    checker.recent_digest(0)?;
    let cfg = *checker.db.config();
    layers::exact_work(&checker.db, &classes(&inp), &cfg)
}

/// One representative query per class, anchored at the top hub.
pub fn classes(inp: &Inputs) -> Vec<Class> {
    CLASSES
        .iter()
        .map(|&name| match name {
            "recent_count" => Class::new(name, RECENT_COUNT),
            _ => Class::new(name, anchored(name, inp.anchors[0])),
        })
        .collect()
}
