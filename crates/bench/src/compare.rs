//! The performance-trajectory gate: compare two `--json` timing documents
//! (as written by `paper_tables ... --json PATH`, e.g. the committed
//! `BENCH_*.json` baselines) and fail on median regressions.
//!
//! ```sh
//! cargo run --release --bin eh_bench -- --compare BENCH_7.json new.json
//! ```
//!
//! Zero dependencies by design: the document format is the flat one
//! `flush_json` emits (`{"scale": S, "entries": [ {..}, .. ]}` where every
//! entry object maps string keys to string or unsigned-integer values), and
//! the scanner below parses exactly that — CI must not need a JSON crate.

use std::fmt::Write as _;

/// Median regressions larger than this ratio fail the gate (new is allowed
/// to be up to 15% slower than old before we call it a regression; noisy CI
/// runners make a tighter bound flaky).
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Timings below this floor are never compared: a 5µs → 7µs change is
/// timer jitter, not a regression.
pub const MIN_COMPARABLE_US: u64 = 50;

/// One timing record from a `--json` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    pub table: String,
    pub dataset: String,
    pub query: String,
    pub config: String,
    pub median_us: u64,
    pub rows: u64,
}

impl BenchEntry {
    /// The identity a baseline entry is matched on across runs.
    pub fn key(&self) -> (&str, &str, &str, &str) {
        (&self.table, &self.dataset, &self.query, &self.config)
    }
}

// ------------------------------------------------------------- JSON reader

/// Cursor over the document bytes; whitespace-insensitive.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parse a JSON string (supporting the escapes `json_str` emits).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are valid UTF-8 (the input is &str); copy the
                    // whole multi-byte character, not just its first byte.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Skip any JSON value — object, array, string, number, or literal —
    /// without interpreting it. Newer writers add fields (e.g. profile
    /// counters); documents carrying them must stay comparable with old
    /// baselines, so unknown keys are skipped, not rejected.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
            }
            Some(b'{') => {
                self.expect(b'{')?;
                if !self.eat(b'}') {
                    loop {
                        self.string()?;
                        self.expect(b':')?;
                        self.skip_value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b'}')?;
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if !self.eat(b']') {
                    loop {
                        self.skip_value()?;
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                // true / false / null
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_alphabetic())
                {
                    self.pos += 1;
                }
            }
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }

    /// Parse a non-negative number, truncating any fraction (the documents
    /// only carry `scale`, `median_us`, `rows`).
    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        let value: f64 = text
            .parse()
            .map_err(|e| format!("bad number {text:?}: {e}"))?;
        if value < 0.0 {
            return Err(format!("negative value {text} not allowed"));
        }
        Ok(value as u64)
    }
}

/// Parse a `--json` timing document into its entries.
pub fn parse_doc(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut s = Scanner::new(text);
    s.expect(b'{')?;
    let mut entries = Vec::new();
    loop {
        let key = s.string()?;
        s.expect(b':')?;
        match key.as_str() {
            "entries" => {
                s.expect(b'[')?;
                if !s.eat(b']') {
                    loop {
                        entries.push(parse_entry(&mut s)?);
                        if !s.eat(b',') {
                            break;
                        }
                    }
                    s.expect(b']')?;
                }
            }
            _ => {
                // scale (or future metadata of any shape): skip and ignore.
                s.skip_value()?;
            }
        }
        if !s.eat(b',') {
            break;
        }
    }
    s.expect(b'}')?;
    Ok(entries)
}

fn parse_entry(s: &mut Scanner<'_>) -> Result<BenchEntry, String> {
    s.expect(b'{')?;
    let mut e = BenchEntry {
        table: String::new(),
        dataset: String::new(),
        query: String::new(),
        config: String::new(),
        median_us: 0,
        rows: 0,
    };
    loop {
        let key = s.string()?;
        s.expect(b':')?;
        match key.as_str() {
            "table" => e.table = s.string()?,
            "dataset" => e.dataset = s.string()?,
            "query" => e.query = s.string()?,
            "config" => e.config = s.string()?,
            "median_us" => e.median_us = s.number()?,
            "rows" => e.rows = s.number()?,
            // Unknown trailing fields (profile counters from newer
            // writers) are skipped so old baselines stay comparable.
            _ => s.skip_value()?,
        }
        if !s.eat(b',') {
            break;
        }
    }
    s.expect(b'}')?;
    Ok(e)
}

// --------------------------------------------------------------- comparison

/// The verdict for one matched (old, new) entry pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Slowdown ratio beyond the threshold.
    Regressed { ratio: f64 },
    /// Row/scalar counts differ — a correctness drift, always fatal.
    RowsDiffer { old_rows: u64, new_rows: u64 },
    /// Within threshold (or too fast to compare meaningfully).
    Ok { ratio: f64 },
}

/// One line of a comparison report.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub entry: BenchEntry,
    pub old_us: u64,
    pub verdict: Verdict,
}

/// Everything [`compare`] learns about two documents: matched pairs
/// with verdicts, baseline entries dropped by the new run (fatal — the
/// suite must not silently shrink), and entries new to this run
/// (informational — the suite may grow).
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    pub report: Vec<Comparison>,
    pub missing: Vec<BenchEntry>,
    pub added: Vec<BenchEntry>,
}

/// Compare `new` against the `old` baseline. Entries are matched on
/// (table, dataset, query, config); baseline entries missing from `new`
/// are reported as failures, entries only in `new` as informational
/// additions.
pub fn compare(old: &[BenchEntry], new: &[BenchEntry], threshold: f64) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    for n in new {
        if !old.iter().any(|o| o.key() == n.key()) {
            outcome.added.push(n.clone());
        }
    }
    for o in old {
        let Some(n) = new.iter().find(|n| n.key() == o.key()) else {
            outcome.missing.push(o.clone());
            continue;
        };
        let verdict = if n.rows != o.rows {
            Verdict::RowsDiffer {
                old_rows: o.rows,
                new_rows: n.rows,
            }
        } else {
            let ratio = if o.median_us == 0 {
                1.0
            } else {
                n.median_us as f64 / o.median_us as f64
            };
            let comparable = o.median_us.max(n.median_us) >= MIN_COMPARABLE_US;
            if comparable && ratio > 1.0 + threshold {
                Verdict::Regressed { ratio }
            } else {
                Verdict::Ok { ratio }
            }
        };
        outcome.report.push(Comparison {
            entry: n.clone(),
            old_us: o.median_us,
            verdict,
        });
    }
    outcome
}

/// Render the report; returns true when the gate passes.
pub fn render_report(outcome: &CompareOutcome, threshold: f64, out: &mut String) -> bool {
    let mut ok = true;
    for c in &outcome.report {
        let key = format!(
            "{}/{}/{}/{}",
            c.entry.table, c.entry.dataset, c.entry.query, c.entry.config
        );
        match &c.verdict {
            Verdict::Ok { ratio } => {
                let _ = writeln!(
                    out,
                    "  ok        {key}: {} -> {} us ({ratio:.2}x)",
                    c.old_us, c.entry.median_us
                );
            }
            Verdict::Regressed { ratio } => {
                ok = false;
                let _ = writeln!(
                    out,
                    "  REGRESSED {key}: {} -> {} us ({ratio:.2}x > {:.2}x)",
                    c.old_us,
                    c.entry.median_us,
                    1.0 + threshold
                );
            }
            Verdict::RowsDiffer { old_rows, new_rows } => {
                ok = false;
                let _ = writeln!(
                    out,
                    "  ROWS      {key}: {old_rows} -> {new_rows} (answers drifted)"
                );
            }
        }
    }
    for m in &outcome.missing {
        ok = false;
        let _ = writeln!(
            out,
            "  MISSING   {}/{}/{}/{}: present in baseline, dropped by new run",
            m.table, m.dataset, m.query, m.config
        );
    }
    for a in &outcome.added {
        // Informational only: a growing suite passes, but the grower
        // should see exactly what appeared (and refresh the baseline).
        let _ = writeln!(
            out,
            "  added     {}/{}/{}/{}: absent from baseline ({} us, {} rows)",
            a.table, a.dataset, a.query, a.config, a.median_us, a.rows
        );
    }
    ok
}

/// Entry point for the `eh_bench` binary:
/// `eh_bench --compare OLD.json NEW.json [--threshold 0.15]`.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: eh_bench --compare OLD.json NEW.json [--threshold R]";
    let threshold = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_THRESHOLD);
    let Some(i) = args.iter().position(|a| a == "--compare") else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (Some(old_path), Some(new_path)) = (args.get(i + 1), args.get(i + 2)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let read = |path: &str| -> Vec<BenchEntry> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        parse_doc(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    let outcome = compare(&old, &new, threshold);
    let mut rendered = String::new();
    let ok = render_report(&outcome, threshold, &mut rendered);
    println!(
        "comparing {new_path} against baseline {old_path} (threshold {:.0}%):",
        threshold * 100.0
    );
    print!("{rendered}");
    if ok {
        println!(
            "trajectory gate PASSED ({} entries, {} added)",
            outcome.report.len(),
            outcome.added.len()
        );
    } else {
        println!("trajectory gate FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(query: &str, median_us: u64, rows: u64) -> BenchEntry {
        BenchEntry {
            table: "bench-trajectory".into(),
            dataset: "uniform".into(),
            query: query.into(),
            config: "static".into(),
            median_us,
            rows,
        }
    }

    fn doc(entries: &[BenchEntry]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"table\":\"{}\",\"dataset\":\"{}\",\"query\":\"{}\",\"config\":\"{}\",\"median_us\":{},\"rows\":{}}}",
                    e.table, e.dataset, e.query, e.config, e.median_us, e.rows
                )
            })
            .collect();
        format!("{{\"scale\": 0.1,\n \"entries\": [{}]}}", body.join(",\n"))
    }

    #[test]
    fn roundtrips_the_flush_json_format() {
        let entries = vec![entry("triangle", 1234, 56), entry("2hop", 999, 7)];
        let parsed = parse_doc(&doc(&entries)).unwrap();
        assert_eq!(parsed, entries);
        // Escapes and an empty entries array both parse.
        let parsed = parse_doc("{\"scale\": 1, \"entries\": []}").unwrap();
        assert!(parsed.is_empty());
        let parsed =
            parse_doc("{\"entries\":[{\"table\":\"a\\\"b\\u0041\",\"median_us\":3}]}").unwrap();
        assert_eq!(parsed[0].table, "a\"bA");
        assert_eq!(parsed[0].median_us, 3);
    }

    #[test]
    fn unknown_fields_are_skipped_not_rejected() {
        // A profile-bearing document from a newer writer: extra scalar,
        // string, object, and array fields inside entries, plus unknown
        // top-level metadata — all must parse against this reader.
        let text = "{\"scale\": 0.1, \"profiled\": true, \"meta\": {\"host\": \"ci\"},\n\
                    \"entries\": [{\"table\":\"t\",\"dataset\":\"d\",\"query\":\"q\",\
                    \"config\":\"c\",\"median_us\": 100, \"rows\": 4,\
                    \"values_scanned\": 123, \"kernels\": {\"merge\": 5, \"gallop\": [1,2]},\
                    \"note\": \"observed\", \"estimated\": null}]}";
        let parsed = parse_doc(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].median_us, 100);
        assert_eq!(parsed[0].rows, 4);
        assert_eq!(parsed[0].query, "q");
    }

    #[test]
    fn added_entries_are_reported_but_pass() {
        let old = vec![entry("triangle", 1000, 56)];
        let new = vec![entry("triangle", 1000, 56), entry("4clique", 2000, 3)];
        let outcome = compare(&old, &new, DEFAULT_THRESHOLD);
        assert_eq!(outcome.added.len(), 1);
        assert_eq!(outcome.added[0].query, "4clique");
        let mut out = String::new();
        assert!(render_report(&outcome, DEFAULT_THRESHOLD, &mut out));
        assert!(
            out.contains("added     bench-trajectory/uniform/4clique"),
            "{out}"
        );
    }

    #[test]
    fn twenty_percent_regression_fails_the_gate() {
        let old = vec![entry("triangle", 1000, 56), entry("2hop", 1000, 7)];
        // triangle regresses by 20% — beyond the 15% threshold.
        let new = vec![entry("triangle", 1200, 56), entry("2hop", 1010, 7)];
        let outcome = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(outcome.missing.is_empty());
        let mut out = String::new();
        assert!(!render_report(&outcome, DEFAULT_THRESHOLD, &mut out));
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(
            matches!(outcome.report[0].verdict, Verdict::Regressed { ratio } if (ratio - 1.2).abs() < 1e-9),
            "{:?}",
            outcome.report
        );
        assert!(matches!(outcome.report[1].verdict, Verdict::Ok { .. }));
    }

    #[test]
    fn within_threshold_passes() {
        let old = vec![entry("triangle", 1000, 56)];
        let new = vec![entry("triangle", 1100, 56)];
        let outcome = compare(&old, &new, DEFAULT_THRESHOLD);
        let mut out = String::new();
        assert!(render_report(&outcome, DEFAULT_THRESHOLD, &mut out));
    }

    #[test]
    fn row_drift_and_missing_entries_fail() {
        let old = vec![entry("triangle", 1000, 56), entry("2hop", 500, 7)];
        let new = vec![entry("triangle", 1000, 57)];
        let outcome = compare(&old, &new, DEFAULT_THRESHOLD);
        assert_eq!(outcome.missing.len(), 1);
        assert!(matches!(
            outcome.report[0].verdict,
            Verdict::RowsDiffer {
                old_rows: 56,
                new_rows: 57
            }
        ));
        let mut out = String::new();
        assert!(!render_report(&outcome, DEFAULT_THRESHOLD, &mut out));
        assert!(out.contains("MISSING"), "{out}");
    }

    #[test]
    fn sub_jitter_timings_never_regress() {
        // 5µs -> 40µs is an 8x "slowdown" but below the comparability
        // floor: timer jitter, not signal.
        let old = vec![entry("tiny", 5, 1)];
        let new = vec![entry("tiny", 40, 1)];
        let outcome = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(
            matches!(outcome.report[0].verdict, Verdict::Ok { .. }),
            "{:?}",
            outcome.report
        );
    }
}
