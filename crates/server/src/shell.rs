//! `eh_shell` — the interactive front door.
//!
//! One binary, four modes:
//!
//! * **embedded** (default): an in-process [`Database`] with its own
//!   [`PlanCache`] — the full query surface with no server.
//! * **remote** (`--connect ADDR`): every statement goes over the wire
//!   to a running `eh_server`.
//! * **cluster** (`--cluster ADDR`, repeatable): a scatter-gather
//!   coordinator over N shard workers — queries partition the root
//!   node's level-0 range across the workers and merge the partials
//!   deterministically ([`crate::cluster`]); `\cluster` shows topology,
//!   per-worker latency, and the last query's estimated-vs-observed
//!   shard skew.
//! * **server** (`--serve ADDR`): binds the listener(s) and serves
//!   until killed.
//!
//! Statements are `.`-terminated queries or backslash commands
//! (`\l file [name]`, `\d`, `\timing`, `\prepare name query`,
//! `\exec name`, `\explain query`, `\trace query`, `\slow [n]`,
//! `\set key value`, `\stats`, `\save path`, `\q`),
//! separated by `;` or newlines; a query's own `;`/`(;w:long)`
//! punctuation is kept intact because a query statement only ends at
//! its final `.`. A multi-rule program is one statement as long as it
//! stays on one line (rules separated by spaces after the `.`); a
//! newline after a `.` ends the statement. Non-interactive driving (`-c 'stmts'` or piped
//! stdin) prints exactly what the interactive loop prints, so CI can
//! diff embedded output against remote output — both render results
//! through the same [`ResultBatch`] path.

use crate::cache::PlanCache;
use crate::client::{ClientError, EhClient, StatementHandle};
use crate::cluster::{Cluster, ShardReport};
use crate::protocol::{ServerStats, WireDelimiter};
use crate::server::{Server, ServerOptions};
use crate::session::{apply_option, batch_from_result};
use eh_core::{profile_to_span, Database, Prepared, Trace, TraceId};
use eh_obs::{prometheus_line, SlowQueryEntry, SlowQueryLog};
use eh_semiring::DynValue;
use eh_storage::wire::ResultBatch;
use std::collections::HashMap;
use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;
use std::time::Instant;

const HELP: &str = "\
eh_shell — EmptyHeaded interactive shell

USAGE:
  eh_shell [OPTIONS]                 embedded REPL (in-process database)
  eh_shell --connect ADDR [OPTIONS]  drive a running eh_server
  eh_shell --cluster A1 --cluster A2 ...  coordinate shard workers
  eh_shell --serve ADDR [--serve ADDR2 ...]  run the server

OPTIONS:
  --connect ADDR   connect to a server (unix:/path | tcp:host:port | host:port)
  --cluster ADDR   add a shard worker (repeatable); queries scatter across
                   all workers and gather to one deterministic answer
  --serve ADDR     bind and serve (repeatable; unix:/path and/or host:port)
  --db PATH        open this database image on startup (embedded/serve)
  --image-dir DIR  let clients \\save images (relative paths) under DIR
                   (server mode; without it remote \\save is rejected)
  -c 'STMTS'       run statements non-interactively, then exit
  --threads N      engine worker threads (0 = auto)
  --json           \\metrics prints a Prometheus-style text exposition
  --help           this text

STATEMENTS (separated by ';' or newline):
  Rule(x,y) :- Edge(x,y).        run a query (read-only)
  A(x) :- E(x,y). B(y) :- A(y).  multi-rule program: keep it on ONE line
                                 (later rules see earlier heads)
  \\l FILE [NAME]                 load a CSV/TSV (header line drives types)
  \\d                             list relations
  \\prepare NAME QUERY            compile once through the plan cache
  \\exec NAME                     run a prepared statement
  \\explain QUERY                 show the compiled plan (embedded: order, cost,
                                 loops; remote/cluster: profiled span tree)
  \\trace QUERY                   run profiled and print the span tree
                                 (cluster: one stitched trace, per-worker lanes)
  \\slow [N]                      recent slow-query log entries (default 10;
                                 threshold via \\set slow_ms MS)
  \\set KEY VALUE                 threads | scheduler | morsel | slow_ms
  \\timing                        toggle per-statement timing
  \\stats                         server / plan-cache statistics
  \\metrics [--json]              frame latency / byte-count metrics
                                 (--json: Prometheus-style exposition)
  \\save PATH                     save a database image
  \\cluster                       cluster topology, per-worker latency,
                                 last-query shard skew (cluster mode)
  \\q                             quit
";

/// Parsed command line.
struct Opts {
    connect: Option<String>,
    cluster: Vec<String>,
    serve: Vec<String>,
    db_image: Option<String>,
    image_dir: Option<String>,
    commands: Option<String>,
    threads: Option<usize>,
    json: bool,
}

fn parse_opts(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        connect: None,
        cluster: Vec::new(),
        serve: Vec::new(),
        db_image: None,
        image_dir: None,
        commands: None,
        threads: None,
        json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--connect" => opts.connect = Some(value(&mut i, "--connect")?),
            "--cluster" => opts.cluster.push(value(&mut i, "--cluster")?),
            "--serve" => opts.serve.push(value(&mut i, "--serve")?),
            "--db" => opts.db_image = Some(value(&mut i, "--db")?),
            "--image-dir" => opts.image_dir = Some(value(&mut i, "--image-dir")?),
            "-c" => opts.commands = Some(value(&mut i, "-c")?),
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                opts.threads = Some(v.parse().map_err(|_| format!("bad thread count '{v}'"))?);
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    if opts.connect.is_some() && !opts.serve.is_empty() {
        return Err("--connect and --serve are mutually exclusive".into());
    }
    if !opts.cluster.is_empty() && (opts.connect.is_some() || !opts.serve.is_empty()) {
        return Err("--cluster is exclusive with --connect and --serve".into());
    }
    if opts.image_dir.is_some() && opts.serve.is_empty() {
        return Err("--image-dir only applies to server mode (--serve)".into());
    }
    Ok(Some(opts))
}

/// Split input into statements. A statement is complete at a `;` or
/// newline boundary once it either is a backslash command (except
/// `\prepare`, `\trace` and `\explain` with an argument, which carry a
/// query) or ends with `.` — so the `;` inside
/// `C(;w:long) :- ...; w=<<COUNT(*)>>.` never splits a query. Returns
/// complete statements plus the unfinished remainder.
fn split_partial(input: &str) -> (Vec<String>, String) {
    let mut out = Vec::new();
    let mut acc = String::new();
    for ch in input.chars() {
        if ch == ';' || ch == '\n' {
            let t = acc.trim();
            let is_meta = t.starts_with('\\');
            let cmd = t.split_whitespace().next().unwrap_or("");
            let wants_query =
                matches!(cmd, "\\prepare" | "\\trace" | "\\explain") && cmd.len() < t.len();
            let complete = if wants_query || !is_meta {
                t.ends_with('.')
            } else {
                !t.is_empty()
            };
            if complete {
                out.push(t.to_string());
                acc.clear();
            } else if ch == ';' {
                acc.push(';');
            } else {
                acc.push(' ');
            }
        } else {
            acc.push(ch);
        }
    }
    (out, acc)
}

/// [`split_partial`] with the trailing remainder flushed as a final
/// statement (end of input ends the last statement).
fn split_statements(input: &str) -> Vec<String> {
    let (mut stmts, rest) = split_partial(input);
    let rest = rest.trim();
    if !rest.is_empty() {
        stmts.push(rest.to_string());
    }
    stmts
}

/// Render a remote failure the way the embedded backend would: the
/// server already sends the engine's own message, so strip the client
/// wrapper's "server error: " prefix — embedded and remote runs of the
/// same failing statement must print identical lines (the CI smoke
/// diffs them).
fn remote_err(e: ClientError) -> String {
    match e {
        ClientError::Server(m) => m,
        other => other.to_string(),
    }
}

fn fmt_dyn(v: &DynValue) -> String {
    match v {
        DynValue::U64(x) => x.to_string(),
        DynValue::F64(x) => x.to_string(),
    }
}

/// Render a result batch the same way for embedded and remote results
/// (so the two modes diff clean in CI).
fn render_batch(batch: &ResultBatch) -> String {
    let mut out = String::new();
    out.push_str(&batch.schema.to_string());
    out.push('\n');
    if batch.tuples.arity() == 0 {
        if let Some(v) = batch.scalar() {
            out.push_str(&format!("{}\n(scalar)\n", fmt_dyn(&v)));
            return out;
        }
        out.push_str("(empty)\n");
        return out;
    }
    let rows = batch.typed_rows();
    let annots = batch.annotations();
    for (i, row) in rows.iter().enumerate() {
        let mut line = row
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\t");
        if let Some(a) = annots {
            line.push('\t');
            line.push_str(&fmt_dyn(&a[i]));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("({} rows)\n", rows.len()));
    out
}

/// An embedded prepared statement: plan + the epoch/text needed to
/// re-prepare transparently if the catalog moves (same contract as a
/// server session).
struct EmbeddedStmt {
    epoch: u64,
    text: String,
    plan: Arc<Prepared>,
}

enum Backend {
    Embedded {
        db: Box<Database>,
        cache: PlanCache,
        statements: HashMap<String, EmbeddedStmt>,
        // The in-process analogue of the server's slow-query ring:
        // embedded queries record here, `\slow` reads it back.
        slowlog: SlowQueryLog,
    },
    Remote {
        client: EhClient,
        statements: HashMap<String, StatementHandle>,
    },
    Cluster {
        cluster: Cluster,
        // Cluster prepare is client-side: the statement name maps to its
        // query text, and \exec scatters the text (every worker still
        // compiles through its own shared plan cache, so re-execution is
        // a cache hit on each shard).
        statements: HashMap<String, String>,
    },
}

impl Backend {
    fn query(&mut self, text: &str) -> Result<String, String> {
        match self {
            Backend::Embedded {
                db, cache, slowlog, ..
            } => {
                // Mirror the server: preparable single rules go through
                // the plan cache (cached texts skip parsing entirely);
                // programs/recursion take the read-only path.
                let started = Instant::now();
                let result = match cache.get_preparable(db, text).map_err(|e| e.to_string())? {
                    Some(plan) => plan.execute(db).map_err(|e| e.to_string())?,
                    None => db.query_ref(text).map_err(|e| e.to_string())?,
                };
                slowlog.observe(SlowQueryEntry {
                    trace_id: 0,
                    query: text.to_string(),
                    rows: result.rows().len() as u64,
                    elapsed_ns: started.elapsed().as_nanos() as u64,
                    sharded: false,
                    hot_span: "-".into(),
                });
                let batch = batch_from_result(db, &result);
                Ok(render_batch(&batch))
            }
            Backend::Remote { client, .. } => {
                let rs = client.query(text).map_err(remote_err)?;
                Ok(render_batch(rs.batch()))
            }
            Backend::Cluster { cluster, .. } => {
                let rs = cluster.query(text).map_err(remote_err)?;
                Ok(render_batch(rs.batch()))
            }
        }
    }

    fn prepare(&mut self, name: &str, text: &str) -> Result<String, String> {
        match self {
            Backend::Embedded {
                db,
                cache,
                statements,
                ..
            } => {
                let (plan, hit) = cache.get_or_prepare(db, text).map_err(|e| e.to_string())?;
                statements.insert(
                    name.to_string(),
                    EmbeddedStmt {
                        epoch: db.epoch(),
                        text: text.to_string(),
                        plan,
                    },
                );
                Ok(format!(
                    "prepared {name} ({})\n",
                    if hit { "plan cache hit" } else { "compiled" }
                ))
            }
            Backend::Remote { client, statements } => {
                let handle = client.prepare(text).map_err(remote_err)?;
                statements.insert(name.to_string(), handle);
                Ok(format!(
                    "prepared {name} ({})\n",
                    if handle.cache_hit {
                        "plan cache hit"
                    } else {
                        "compiled"
                    }
                ))
            }
            Backend::Cluster { statements, .. } => {
                statements.insert(name.to_string(), text.to_string());
                Ok(format!("prepared {name} (cluster: compiled per-shard)\n"))
            }
        }
    }

    fn exec(&mut self, name: &str) -> Result<String, String> {
        match self {
            Backend::Embedded {
                db,
                cache,
                statements,
                ..
            } => {
                let stmt = statements
                    .get_mut(name)
                    .ok_or_else(|| format!("no prepared statement '{name}'"))?;
                if stmt.epoch != db.epoch() {
                    let (plan, _) = cache
                        .get_or_prepare(db, &stmt.text)
                        .map_err(|e| e.to_string())?;
                    stmt.plan = plan;
                    stmt.epoch = db.epoch();
                }
                let result = stmt.plan.execute(db).map_err(|e| e.to_string())?;
                let batch = batch_from_result(db, &result);
                Ok(render_batch(&batch))
            }
            Backend::Remote { client, statements } => {
                let handle = *statements
                    .get(name)
                    .ok_or_else(|| format!("no prepared statement '{name}'"))?;
                let rs = client.exec(handle).map_err(remote_err)?;
                Ok(render_batch(rs.batch()))
            }
            Backend::Cluster {
                cluster,
                statements,
            } => {
                let text = statements
                    .get(name)
                    .ok_or_else(|| format!("no prepared statement '{name}'"))?
                    .clone();
                let rs = cluster.query(&text).map_err(remote_err)?;
                Ok(render_batch(rs.batch()))
            }
        }
    }

    fn load(&mut self, path: &str, relation: &str) -> Result<String, String> {
        match self {
            Backend::Embedded { db, .. } => {
                let report = db.load_csv(relation, path).map_err(|e| e.to_string())?;
                Ok(format!(
                    "loaded {} rows into {relation}{}\n",
                    report.rows,
                    if report.skipped > 0 {
                        format!(" ({} skipped)", report.skipped)
                    } else {
                        String::new()
                    }
                ))
            }
            Backend::Remote { client, .. } => {
                let msg = client.load_csv_path(relation, path).map_err(remote_err)?;
                Ok(format!("{msg}\n"))
            }
            Backend::Cluster { cluster, .. } => {
                let data = std::fs::read(path).map_err(|e| e.to_string())?;
                let delim = WireDelimiter::for_path(std::path::Path::new(path));
                let msg = cluster
                    .load_csv(relation, delim, data)
                    .map_err(remote_err)?;
                Ok(format!("{msg}\n"))
            }
        }
    }

    fn list(&mut self) -> Result<String, String> {
        let mut out = String::new();
        match self {
            Backend::Embedded { db, .. } => {
                let mut names: Vec<String> = db.catalog().names().map(str::to_string).collect();
                names.sort();
                for name in names {
                    if let Some(rel) = db.relation(&name) {
                        let schema = db
                            .storage()
                            .schema(&name)
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| name.clone());
                        out.push_str(&format!("{name}\trows={}\t{schema}\n", rel.len()));
                    }
                }
            }
            Backend::Remote { client, .. } => {
                for e in client.list_relations().map_err(remote_err)? {
                    out.push_str(&format!("{}\trows={}\t{}\n", e.name, e.rows, e.schema));
                }
            }
            Backend::Cluster { cluster, .. } => {
                for e in cluster.list_relations().map_err(remote_err)? {
                    out.push_str(&format!("{}\trows={}\t{}\n", e.name, e.rows, e.schema));
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no relations)\n");
        }
        Ok(out)
    }

    fn explain(&mut self, query: &str) -> Result<String, String> {
        match self {
            Backend::Embedded { db, .. } => db.explain(query).map_err(|e| e.to_string()),
            // The plan text lives server-side, but the Trace frame
            // carries the wire-encoded profile of a profiled run — so
            // remote \explain shows where a real execution spent its
            // time instead of erroring.
            Backend::Remote { client, .. } => {
                let outcome = client.trace_exec(query, false).map_err(remote_err)?;
                match outcome.profile {
                    Some(p) => Ok(format!(
                        "profiled remotely ({} rows):\n{}",
                        outcome.result.num_rows(),
                        profile_to_span("query", &p).render()
                    )),
                    None => Ok(format!(
                        "no profile: plan executes unprofiled (recursive rule); {} rows\n",
                        outcome.result.num_rows()
                    )),
                }
            }
            // A cluster has no client-side planner, but it can profile:
            // scatter the query and report how the level-0 range split
            // (estimated share) against where the time actually went
            // (observed share).
            Backend::Cluster { cluster, .. } => {
                let rs = cluster.query(query).map_err(remote_err)?;
                let mut out = format!(
                    "distributed execution over {} shard(s), {} result row(s)\n",
                    cluster.num_workers(),
                    rs.num_rows()
                );
                out.push_str(&render_skew(cluster.last_reports()));
                Ok(out)
            }
        }
    }

    /// `\trace QUERY`: run profiled and print the span tree. Cluster
    /// mode scatters with a minted trace id and prints the stitched
    /// trace — one `worker k` lane per shard, each holding that
    /// worker's span tree.
    fn trace(&mut self, text: &str) -> Result<String, String> {
        const UNPROFILED: &str = "no trace: plan executes unprofiled (recursive rule)";
        match self {
            Backend::Embedded {
                db, cache, slowlog, ..
            } => {
                let trace_id = TraceId::mint().as_u64();
                let cfg = db.config().with_profile(true);
                let started = Instant::now();
                let result = match cache.get_preparable(db, text).map_err(|e| e.to_string())? {
                    Some(plan) => plan.execute_with(db, &cfg).map_err(|e| e.to_string())?,
                    None => db.query_ref_with(text, &cfg).map_err(|e| e.to_string())?,
                };
                let elapsed_ns = started.elapsed().as_nanos() as u64;
                let rows = result.rows().len() as u64;
                let (out, hot_span) = match result.profile() {
                    Some(p) => {
                        let trace = Trace {
                            trace_id,
                            work: p.work,
                            root: profile_to_span("query", p),
                        };
                        (
                            format!("{}({rows} rows)\n", trace.render()),
                            trace.root.hottest_leaf(),
                        )
                    }
                    None => (format!("{UNPROFILED}\n({rows} rows)\n"), "-".to_string()),
                };
                slowlog.observe(SlowQueryEntry {
                    trace_id,
                    query: text.to_string(),
                    rows,
                    elapsed_ns,
                    sharded: false,
                    hot_span,
                });
                Ok(out)
            }
            Backend::Remote { client, .. } => {
                let outcome = client.trace_exec(text, true).map_err(remote_err)?;
                let rows = outcome.result.num_rows();
                match outcome.trace {
                    Some(trace) => Ok(format!("{}({rows} rows)\n", trace.render())),
                    None => Ok(format!("{UNPROFILED}\n({rows} rows)\n")),
                }
            }
            Backend::Cluster { cluster, .. } => {
                let (trace, rs) = cluster.trace(text).map_err(remote_err)?;
                Ok(format!("{}({} rows)\n", trace.render(), rs.num_rows()))
            }
        }
    }

    /// `\slow [N]`: the most recent slow-query entries, newest first.
    fn slow(&mut self, limit: usize) -> Result<String, String> {
        fn lines(entries: &[SlowQueryEntry]) -> String {
            if entries.is_empty() {
                "(no slow queries)\n".into()
            } else {
                entries.iter().map(|e| e.render() + "\n").collect()
            }
        }
        match self {
            Backend::Embedded { slowlog, .. } => Ok(lines(&slowlog.recent(limit))),
            Backend::Remote { client, .. } => {
                Ok(lines(&client.slow_log(limit as u32).map_err(remote_err)?))
            }
            Backend::Cluster { cluster, .. } => {
                let mut out = String::new();
                for (k, entries) in cluster.slow_log(limit as u32).map_err(remote_err)? {
                    out.push_str(&format!("worker {k}:\n"));
                    for line in lines(&entries).lines() {
                        out.push_str("  ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                Ok(out)
            }
        }
    }

    fn stats(&mut self) -> Result<String, String> {
        match self {
            Backend::Embedded { db, cache, .. } => Ok(format!(
                "embedded epoch={} relations={} plan_cache hits={} misses={} \
                 invalidations={} entries={}/{}\n",
                db.epoch(),
                db.catalog().names().count(),
                cache.hits(),
                cache.misses(),
                cache.invalidations(),
                cache.len(),
                cache.capacity(),
            )),
            Backend::Cluster { cluster, .. } => {
                let s = cluster.stats().map_err(remote_err)?;
                Ok(format!(
                    "cluster workers={} queries={} unsharded={}\n\
                     worker0 epoch={} relations={} queries={} plan_cache hits={} misses={}\n",
                    cluster.num_workers(),
                    cluster.metrics().get("cluster_queries"),
                    cluster.metrics().get("cluster_unsharded_queries"),
                    s.epoch,
                    s.relations,
                    s.queries,
                    s.cache_hits,
                    s.cache_misses,
                ))
            }
            Backend::Remote { client, .. } => {
                let s = client.stats().map_err(remote_err)?;
                Ok(format!(
                    "server epoch={} relations={} sessions={}/{} queries={} exec_prepared={} \
                     plan_cache hits={} misses={} invalidations={} entries={}/{}\n",
                    s.epoch,
                    s.relations,
                    s.sessions_active,
                    s.sessions_total,
                    s.queries,
                    s.exec_prepared,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_invalidations,
                    s.cache_entries,
                    s.cache_capacity,
                ))
            }
        }
    }

    /// `\metrics`: the server's metrics surface. Embedded mode reports
    /// the in-process analogue (epoch, relations, plan cache) with no
    /// frame extension — there is no wire to measure.
    fn metrics(&mut self, json: bool) -> Result<String, String> {
        let stats = match self {
            Backend::Embedded { db, cache, .. } => ServerStats {
                epoch: db.epoch(),
                relations: db.catalog().names().count() as u64,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                cache_invalidations: cache.invalidations(),
                cache_entries: cache.len() as u64,
                cache_capacity: cache.capacity() as u64,
                ..Default::default()
            },
            Backend::Remote { client, .. } => client.stats().map_err(remote_err)?,
            Backend::Cluster { cluster, .. } => cluster.stats().map_err(remote_err)?,
        };
        Ok(if json {
            render_metrics_prometheus(&stats)
        } else {
            render_metrics_text(&stats)
        })
    }

    /// `\cluster`: topology, coordinator counters, per-worker latency,
    /// and the last scattered query's shard-skew table.
    fn cluster_status(&mut self) -> Result<String, String> {
        let Backend::Cluster { cluster, .. } = self else {
            return Err("\\cluster needs cluster mode (--cluster ADDR ...)".into());
        };
        let mut out = format!(
            "cluster: {} worker(s), {} scattered quer{}, {} unsharded\n",
            cluster.num_workers(),
            cluster.metrics().get("cluster_queries"),
            if cluster.metrics().get("cluster_queries") == 1 {
                "y"
            } else {
                "ies"
            },
            cluster.metrics().get("cluster_unsharded_queries"),
        );
        out.push_str("worker  addr                          count    mean_ms     p95_ms\n");
        for (k, addr) in cluster.addrs().iter().enumerate() {
            let name = format!("shard_exec_ns_worker{k}");
            let h = cluster
                .metrics()
                .histogram(&name)
                .map(|h| h.snapshot())
                .unwrap_or_default();
            out.push_str(&format!(
                "{k:>6}  {addr:<28}  {:>5} {:>10.3} {:>10.3}\n",
                h.count,
                h.mean() / 1e6,
                h.percentile(0.95) as f64 / 1e6,
            ));
        }
        out.push_str("last query shard skew:\n");
        out.push_str(&render_skew(cluster.last_reports()));
        Ok(out)
    }

    fn set_option(&mut self, key: &str, val: &str) -> Result<String, String> {
        match self {
            // Same parser the server sessions use, so both modes accept
            // and confirm options with identical text. `slow_ms` is
            // intercepted exactly like a server session intercepts it:
            // it tunes the slow-query log, not the engine config.
            Backend::Embedded { db, slowlog, .. } => {
                if key == "slow_ms" {
                    return match val.parse::<u64>() {
                        Ok(ms) => {
                            slowlog.set_threshold_ns(ms.saturating_mul(1_000_000));
                            Ok(format!("slow_ms = {ms}\n"))
                        }
                        Err(_) => Err(format!("slow_ms wants a number, got '{val}'")),
                    };
                }
                let msg = apply_option(db.config_mut(), key, val)?;
                Ok(format!("{msg}\n"))
            }
            Backend::Remote { client, .. } => {
                let msg = client.set_option(key, val).map_err(remote_err)?;
                Ok(format!("{msg}\n"))
            }
            Backend::Cluster { cluster, .. } => {
                let msg = cluster.set_option(key, val).map_err(remote_err)?;
                Ok(format!("{msg}\n"))
            }
        }
    }

    fn save(&mut self, path: &str) -> Result<String, String> {
        match self {
            Backend::Embedded { db, .. } => {
                db.save(path).map_err(|e| e.to_string())?;
                Ok(format!("saved image to {path}\n"))
            }
            Backend::Remote { client, .. } => {
                let msg = client.save_image(path).map_err(remote_err)?;
                Ok(format!("{msg}\n"))
            }
            Backend::Cluster { .. } => {
                Err("\\save is per-worker; --connect to one worker to save its image".into())
            }
        }
    }
}

/// The estimated-vs-observed shard-skew table: the coordinator's range
/// split predicts each worker's share by level-0 value count; the
/// per-shard server-side latency shows where the time actually went.
fn render_skew(reports: &[ShardReport]) -> String {
    if reports.is_empty() {
        return "(no scattered query yet)\n".into();
    }
    let total_vals: u64 = reports.iter().map(|r| r.level0_values).sum();
    let total_ns: u64 = reports.iter().map(|r| r.elapsed_ns).sum();
    let mut out = String::from("shard  level0   est%       ms   obs%    rows\n");
    for r in reports {
        let est = if total_vals == 0 {
            0.0
        } else {
            100.0 * r.level0_values as f64 / total_vals as f64
        };
        let obs = if total_ns == 0 {
            0.0
        } else {
            100.0 * r.elapsed_ns as f64 / total_ns as f64
        };
        out.push_str(&format!(
            "{:>5}  {:>6}  {:>5.1} {:>8.3}  {:>5.1}  {:>6}{}\n",
            r.worker,
            r.level0_values,
            est,
            r.elapsed_ns as f64 / 1e6,
            obs,
            r.rows,
            if r.sharded {
                ""
            } else {
                "  (full: plan not mergeable)"
            },
        ));
    }
    out
}

/// Human-readable `\metrics` rendering: counter lines plus a per-frame
/// latency table (count, mean, coarse p95) from the protocol-2 `Stats`
/// extension when the backend carries one.
fn render_metrics_text(s: &ServerStats) -> String {
    let mut out = format!(
        "epoch={} relations={} sessions={}/{} queries={} exec_prepared={}\n\
         plan_cache hits={} misses={} invalidations={} entries={}/{}\n",
        s.epoch,
        s.relations,
        s.sessions_active,
        s.sessions_total,
        s.queries,
        s.exec_prepared,
        s.cache_hits,
        s.cache_misses,
        s.cache_invalidations,
        s.cache_entries,
        s.cache_capacity,
    );
    let Some(ext) = &s.ext else {
        out.push_str("(no frame metrics: embedded backend or protocol-1 server)\n");
        return out;
    };
    out.push_str(&format!(
        "bytes in={} out={}\n",
        ext.bytes_in, ext.bytes_out
    ));
    out.push_str("frame            count    mean_us     p95_us\n");
    for f in &ext.frames {
        if f.count == 0 {
            continue;
        }
        let h = f.histogram();
        out.push_str(&format!(
            "{:<16} {:>5} {:>10.1} {:>10}\n",
            f.name,
            f.count,
            h.mean() / 1e3,
            h.percentile(0.95) / 1000,
        ));
    }
    out
}

/// Prometheus-style text exposition of the same stats (`--json` mode):
/// one `name{label} value` line per metric, histogram buckets with
/// nanosecond `le` upper edges.
fn render_metrics_prometheus(s: &ServerStats) -> String {
    let mut out = String::new();
    for (name, v) in [
        ("epoch", s.epoch),
        ("relations", s.relations),
        ("sessions_total", s.sessions_total),
        ("sessions_active", s.sessions_active),
        ("queries_total", s.queries),
        ("exec_prepared_total", s.exec_prepared),
        ("plan_cache_hits", s.cache_hits),
        ("plan_cache_misses", s.cache_misses),
        ("plan_cache_invalidations", s.cache_invalidations),
        ("plan_cache_entries", s.cache_entries),
        ("plan_cache_capacity", s.cache_capacity),
    ] {
        prometheus_line(&mut out, "eh_", name, v);
    }
    if let Some(ext) = &s.ext {
        prometheus_line(&mut out, "eh_", "bytes_in_total", ext.bytes_in);
        prometheus_line(&mut out, "eh_", "bytes_out_total", ext.bytes_out);
        for f in &ext.frames {
            let label = format!("{{frame=\"{}\"}}", f.name);
            prometheus_line(&mut out, "eh_", &format!("frame_ns_count{label}"), f.count);
            prometheus_line(&mut out, "eh_", &format!("frame_ns_sum{label}"), f.total_ns);
            for &(b, c) in &f.buckets {
                let le = eh_obs::bucket_floor(b as usize + 1).max(1) - 1;
                prometheus_line(
                    &mut out,
                    "eh_",
                    &format!("frame_ns_bucket{{frame=\"{}\",le=\"{le}\"}}", f.name),
                    c,
                );
            }
        }
    }
    out
}

/// Default relation name for `\l file`: the file stem with
/// non-identifier characters replaced.
fn relation_name_for(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("R");
    let mut name: String = stem
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        name.insert(0, 'R');
    }
    name
}

/// Outcome of one statement.
enum StmtOutcome {
    Output(String),
    Error(String),
    Quit,
}

fn run_statement(backend: &mut Backend, stmt: &str, json: bool) -> StmtOutcome {
    let result = if let Some(rest) = stmt.strip_prefix('\\') {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim().to_string();
        match cmd {
            "q" | "quit" => return StmtOutcome::Quit,
            "help" | "?" => Ok(HELP.to_string()),
            "d" => backend.list(),
            "timing" => Err("\\timing takes no arguments".into()),
            "stats" => backend.stats(),
            "cluster" => backend.cluster_status(),
            "metrics" => match arg.as_str() {
                "" => backend.metrics(json),
                "--json" => backend.metrics(true),
                other => Err(format!(
                    "\\metrics takes no argument but --json, got '{other}'"
                )),
            },
            "l" | "load" => {
                let mut words = arg.split_whitespace();
                match words.next() {
                    None => Err("\\l needs a file path".into()),
                    Some(path) => {
                        let name = words
                            .next()
                            .map(str::to_string)
                            .unwrap_or_else(|| relation_name_for(path));
                        backend.load(path, &name)
                    }
                }
            }
            "prepare" => {
                let mut words = arg.splitn(2, char::is_whitespace);
                match (words.next(), words.next()) {
                    (Some(name), Some(query)) if !query.trim().is_empty() => {
                        backend.prepare(name, query.trim())
                    }
                    _ => Err("\\prepare needs NAME QUERY".into()),
                }
            }
            "exec" => {
                if arg.is_empty() {
                    Err("\\exec needs a statement name".into())
                } else {
                    backend.exec(&arg)
                }
            }
            "explain" => {
                if arg.is_empty() {
                    Err("\\explain needs a query".into())
                } else {
                    backend.explain(&arg)
                }
            }
            "trace" => {
                if arg.is_empty() {
                    Err("\\trace needs a query".into())
                } else {
                    backend.trace(&arg)
                }
            }
            "slow" => {
                if arg.is_empty() {
                    backend.slow(10)
                } else {
                    match arg.parse::<usize>() {
                        Ok(n) => backend.slow(n),
                        Err(_) => Err(format!("\\slow takes an entry count, got '{arg}'")),
                    }
                }
            }
            "set" => {
                let mut words = arg.split_whitespace();
                match (words.next(), words.next()) {
                    (Some(k), Some(v)) => backend.set_option(k, v),
                    _ => Err("\\set needs KEY VALUE".into()),
                }
            }
            "save" => {
                if arg.is_empty() {
                    Err("\\save needs a path".into())
                } else {
                    backend.save(&arg)
                }
            }
            other => Err(format!("unknown command \\{other} (try \\help)")),
        }
    } else {
        backend.query(stmt)
    };
    match result {
        Ok(out) => StmtOutcome::Output(out),
        Err(e) => StmtOutcome::Error(e),
    }
}

/// Entry point shared by the `eh_shell` binary.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("eh_shell: {e}");
            2
        }
    });
}

fn open_database(opts: &Opts) -> Result<Database, String> {
    let mut db = match &opts.db_image {
        Some(path) => Database::open(path).map_err(|e| e.to_string())?,
        None => Database::new(),
    };
    if let Some(n) = opts.threads {
        let cfg = db.config().with_threads(n);
        *db.config_mut() = cfg;
    }
    Ok(db)
}

fn run(args: &[String]) -> Result<i32, String> {
    let Some(opts) = parse_opts(args)? else {
        print!("{HELP}");
        return Ok(0);
    };

    // Server mode: bind, announce, serve until killed.
    if !opts.serve.is_empty() {
        let db = open_database(&opts)?;
        let addrs: Vec<&str> = opts.serve.iter().map(String::as_str).collect();
        let options = ServerOptions {
            image_dir: opts.image_dir.as_ref().map(Into::into),
            ..ServerOptions::default()
        };
        let server = Server::bind(db, &addrs, options).map_err(|e| e.to_string())?;
        for a in server.bound_addrs() {
            println!("eh_server listening on {a}");
        }
        std::io::stdout().flush().ok();
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    let mut backend = if !opts.cluster.is_empty() {
        Backend::Cluster {
            cluster: Cluster::connect(&opts.cluster).map_err(|e| e.to_string())?,
            statements: HashMap::new(),
        }
    } else {
        match &opts.connect {
            Some(addr) => Backend::Remote {
                client: EhClient::connect(addr).map_err(|e| e.to_string())?,
                statements: HashMap::new(),
            },
            None => Backend::Embedded {
                db: Box::new(open_database(&opts)?),
                cache: PlanCache::new(64),
                statements: HashMap::new(),
                slowlog: SlowQueryLog::new(),
            },
        }
    };

    let mut timing = false;
    let mut had_error = false;
    let stdout = std::io::stdout();
    let emit = |outcome: StmtOutcome, timing: bool, elapsed_ms: f64| -> bool {
        let mut out = stdout.lock();
        match outcome {
            StmtOutcome::Output(s) => {
                let _ = out.write_all(s.as_bytes());
                if timing {
                    let _ = writeln!(out, "Time: {elapsed_ms:.3} ms");
                }
                let _ = out.flush();
                false
            }
            StmtOutcome::Error(e) => {
                let _ = writeln!(out, "error: {e}");
                let _ = out.flush();
                true
            }
            StmtOutcome::Quit => false,
        }
    };

    let json = opts.json;
    let process =
        |backend: &mut Backend, stmt: &str, timing: &mut bool, had_error: &mut bool| -> bool {
            if stmt == "\\timing" {
                *timing = !*timing;
                println!("Timing {}", if *timing { "on" } else { "off" });
                return true;
            }
            let t0 = Instant::now();
            let outcome = run_statement(backend, stmt, json);
            let quit = matches!(outcome, StmtOutcome::Quit);
            if emit(outcome, *timing, t0.elapsed().as_secs_f64() * 1e3) {
                *had_error = true;
            }
            !quit
        };

    if let Some(commands) = &opts.commands {
        for stmt in split_statements(commands) {
            if !process(&mut backend, &stmt, &mut timing, &mut had_error) {
                break;
            }
        }
        return Ok(if had_error { 1 } else { 0 });
    }

    // Interactive / piped REPL.
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        match &backend {
            Backend::Embedded { .. } => println!("eh_shell (embedded) — \\help for help"),
            Backend::Remote { client, .. } => {
                println!("eh_shell — connected to {}", client.server_banner())
            }
            Backend::Cluster { cluster, .. } => {
                println!(
                    "eh_shell — coordinating {} shard worker(s)",
                    cluster.num_workers()
                )
            }
        }
    }
    let mut pending = String::new();
    'outer: loop {
        if interactive {
            print!(
                "{}",
                if pending.trim().is_empty() {
                    "eh> "
                } else {
                    "...> "
                }
            );
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        pending.push_str(&line);
        let (stmts, rest) = split_partial(&pending);
        pending = rest;
        for stmt in stmts {
            if !process(&mut backend, &stmt, &mut timing, &mut had_error) {
                break 'outer;
            }
        }
    }
    // EOF with an unfinished statement: run what's there.
    let tail = pending.trim().to_string();
    if !tail.is_empty() {
        process(&mut backend, &tail, &mut timing, &mut had_error);
    }
    Ok(if had_error && !interactive { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_splitting_keeps_query_semicolons() {
        let stmts = split_statements(
            "\\l /tmp/e.tsv E; C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.; \\d",
        );
        assert_eq!(
            stmts,
            vec![
                "\\l /tmp/e.tsv E",
                "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
                "\\d",
            ]
        );
    }

    #[test]
    fn prepare_carries_its_query_across_semicolons() {
        let stmts = split_statements(
            "\\prepare t C(;w:long) :- E(x,y); w=<<COUNT(*)>>.; \\exec t; \\exec t",
        );
        assert_eq!(
            stmts,
            vec![
                "\\prepare t C(;w:long) :- E(x,y); w=<<COUNT(*)>>.",
                "\\exec t",
                "\\exec t",
            ]
        );
    }

    #[test]
    fn newlines_continue_unfinished_queries() {
        let (done, rest) = split_partial("T(x,y) :-\n  E(x,y)");
        assert!(done.is_empty());
        assert_eq!(rest, "T(x,y) :-   E(x,y)");
        let (done, rest) = split_partial("T(x,y) :-\n  E(x,y).\n");
        assert_eq!(done, vec!["T(x,y) :-   E(x,y)."]);
        assert!(rest.is_empty());
    }

    #[test]
    fn one_line_programs_stay_whole() {
        let stmts = split_statements("A(x,z) :- E(x,y),E(y,z). B(z) :- A('0',z).; \\d");
        assert_eq!(
            stmts,
            vec!["A(x,z) :- E(x,y),E(y,z). B(z) :- A('0',z).", "\\d"]
        );
    }

    #[test]
    fn relation_names_from_paths() {
        assert_eq!(relation_name_for("/tmp/edges.tsv"), "edges");
        assert_eq!(relation_name_for("/tmp/1-bad name.csv"), "R1_bad_name");
        assert_eq!(relation_name_for(""), "R");
    }

    #[test]
    fn embedded_shell_end_to_end() {
        let dir = std::env::temp_dir().join(format!("eh_shell_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("e.tsv");
        std::fs::write(&tsv, "src:u32\tdst:u32\n0\t1\n1\t2\n0\t2\n").unwrap();
        let mut backend = Backend::Embedded {
            db: Box::new(Database::new()),
            cache: PlanCache::new(8),
            statements: HashMap::new(),
            slowlog: SlowQueryLog::new(),
        };
        let load = format!("\\l {} E", tsv.display());
        let out = match run_statement(&mut backend, &load, false) {
            StmtOutcome::Output(s) => s,
            other => panic!("load failed: {other:?}"),
        };
        assert!(out.contains("loaded 3 rows into E"), "{out}");
        let q = "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.";
        let out = match run_statement(&mut backend, q, false) {
            StmtOutcome::Output(s) => s,
            other => panic!("query failed: {other:?}"),
        };
        assert!(out.contains("1\n(scalar)"), "{out}");
        let out = match run_statement(&mut backend, "\\prepare t T(x,y) :- E(x,y).", false) {
            StmtOutcome::Output(s) => s,
            other => panic!("prepare failed: {other:?}"),
        };
        assert!(out.contains("prepared t (compiled)"), "{out}");
        let out = match run_statement(&mut backend, "\\exec t", false) {
            StmtOutcome::Output(s) => s,
            other => panic!("exec failed: {other:?}"),
        };
        assert!(out.contains("(3 rows)"), "{out}");
        let out = match run_statement(&mut backend, "\\d", false) {
            StmtOutcome::Output(s) => s,
            other => panic!("list failed: {other:?}"),
        };
        assert!(out.contains("E\trows=3"), "{out}");
        // A one-line multi-rule program runs as one read-only overlay
        // program: rule 2 sees rule 1's head.
        let program = "Hop2(x,z) :- E(x,y),E(y,z). From(z) :- Hop2('0',z).";
        let out = match run_statement(&mut backend, program, false) {
            StmtOutcome::Output(s) => s,
            other => panic!("program failed: {other:?}"),
        };
        assert!(out.contains("(1 rows)"), "{out}");
        // \explain shows the compiled loop nest; with E loaded the
        // planner has catalog stats, so the order is cost-based.
        let out = match run_statement(
            &mut backend,
            "\\explain T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            false,
        ) {
            StmtOutcome::Output(s) => s,
            other => panic!("explain failed: {other:?}"),
        };
        assert!(out.contains("order:"), "{out}");
        assert!(out.contains("cost-based"), "{out}");
        assert!(out.contains("for "), "{out}");
        match run_statement(&mut backend, "\\explain", false) {
            StmtOutcome::Error(e) => assert!(e.contains("needs a query"), "{e}"),
            other => panic!("expected error: {other:?}"),
        }
        // \trace runs profiled and prints a span tree + row count; with
        // threshold 0 every statement lands in the slow-query log.
        match run_statement(&mut backend, "\\set slow_ms 0", false) {
            StmtOutcome::Output(s) => assert_eq!(s, "slow_ms = 0\n"),
            other => panic!("set slow_ms failed: {other:?}"),
        }
        let out = match run_statement(
            &mut backend,
            "\\trace T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            false,
        ) {
            StmtOutcome::Output(s) => s,
            other => panic!("trace failed: {other:?}"),
        };
        assert!(out.starts_with("trace "), "{out}");
        assert!(out.contains("kernels:"), "{out}");
        assert!(out.contains("(1 rows)"), "{out}");
        let out = match run_statement(&mut backend, "\\slow", false) {
            StmtOutcome::Output(s) => s,
            other => panic!("slow failed: {other:?}"),
        };
        assert!(out.contains("slow: trace="), "{out}");
        assert!(out.contains("T(x,y,z)"), "{out}");
        match run_statement(&mut backend, "\\slow nope", false) {
            StmtOutcome::Error(e) => assert!(e.contains("entry count"), "{e}"),
            other => panic!("expected error: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_statements_carry_their_query_across_semicolons() {
        let stmts = split_statements("\\trace C(;w:long) :- E(x,y); w=<<COUNT(*)>>.; \\slow 5");
        assert_eq!(
            stmts,
            vec!["\\trace C(;w:long) :- E(x,y); w=<<COUNT(*)>>.", "\\slow 5"]
        );
    }

    #[test]
    fn explain_carries_an_aggregate_query_across_semicolons() {
        let stmts = split_statements(
            "\\l /tmp/e.tsv E; \\explain H2(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.; \\d",
        );
        assert_eq!(
            stmts,
            vec![
                "\\l /tmp/e.tsv E",
                "\\explain H2(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
                "\\d",
            ]
        );
        // A bare query command still ends at the next boundary, so its
        // "needs a query" error cannot swallow the following statement.
        assert_eq!(split_statements("\\explain; \\d"), vec!["\\explain", "\\d"]);
    }

    #[test]
    fn metrics_render_text_and_prometheus() {
        use crate::protocol::{FrameStat, StatsExt};
        let stats = ServerStats {
            epoch: 2,
            relations: 1,
            sessions_total: 3,
            sessions_active: 1,
            queries: 5,
            cache_hits: 4,
            cache_misses: 1,
            cache_entries: 1,
            cache_capacity: 64,
            ext: Some(StatsExt {
                bytes_in: 100,
                bytes_out: 900,
                frames: vec![FrameStat {
                    name: "query".into(),
                    count: 5,
                    total_ns: 5_000_000,
                    buckets: vec![(20, 5)],
                }],
            }),
            ..Default::default()
        };
        let text = render_metrics_text(&stats);
        assert!(text.contains("bytes in=100 out=900"), "{text}");
        assert!(text.contains("query"), "{text}");
        let prom = render_metrics_prometheus(&stats);
        assert!(prom.contains("eh_plan_cache_hits 4\n"), "{prom}");
        assert!(prom.contains("eh_bytes_in_total 100\n"), "{prom}");
        assert!(
            prom.contains("eh_frame_ns_count{frame=\"query\"} 5\n"),
            "{prom}"
        );
        assert!(
            prom.contains("eh_frame_ns_bucket{frame=\"query\",le=\"1048575\"} 5\n"),
            "{prom}"
        );
        // Every line is `name value` or `name{labels} value`.
        for line in prom.lines() {
            assert!(line.starts_with("eh_"), "{line}");
            assert!(
                line.rsplit(' ').next().unwrap().parse::<u64>().is_ok(),
                "{line}"
            );
        }
        // No ext: the text renderer says so instead of a bare table.
        let mut bare = stats;
        bare.ext = None;
        assert!(render_metrics_text(&bare).contains("no frame metrics"));
        // The embedded backend's \metrics goes through the same path.
        let mut backend = Backend::Embedded {
            db: Box::new(Database::new()),
            cache: PlanCache::new(8),
            statements: HashMap::new(),
            slowlog: SlowQueryLog::new(),
        };
        match run_statement(&mut backend, "\\metrics", false) {
            StmtOutcome::Output(s) => assert!(s.contains("plan_cache"), "{s}"),
            other => panic!("metrics failed: {other:?}"),
        }
        match run_statement(&mut backend, "\\metrics --json", false) {
            StmtOutcome::Output(s) => assert!(s.contains("eh_epoch 0\n"), "{s}"),
            other => panic!("metrics --json failed: {other:?}"),
        }
        match run_statement(&mut backend, "\\metrics bogus", false) {
            StmtOutcome::Error(e) => assert!(e.contains("--json"), "{e}"),
            other => panic!("expected error: {other:?}"),
        }
    }

    impl std::fmt::Debug for StmtOutcome {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                StmtOutcome::Output(s) => write!(f, "Output({s})"),
                StmtOutcome::Error(e) => write!(f, "Error({e})"),
                StmtOutcome::Quit => write!(f, "Quit"),
            }
        }
    }
}
