//! Small helpers shared by every workload: a seeded generator, sample
//! statistics, the Zipf anchor sampler, process memory, the host
//! fingerprint, and the host-speed probe the closed loops time against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, seedable generator. The benchmark derives every
/// input from the workload seed through it, so one seed always yields
/// the same graph, request mix and write schedule.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one named purpose, independent of the others
    /// drawn from the same seed.
    pub fn derive(seed: u64, purpose: &str) -> Rng {
        Rng::new(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ digest(purpose.bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f`, returning its value and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Host fingerprint: absolute numbers compare only within one.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc,
            cpu_model,
            kernel,
        }
    }
}

/// The workload graph: the named `paper_datasets()` analog's shape at
/// `scale`, generated by `power_law` from the workload seed.
pub fn analog(name: &str, scale: f64, seed: u64) -> eh_core::Graph {
    let spec = eh_graph::datasets::paper_datasets()
        .into_iter()
        .find(|s| s.name == name)
        .expect("named dataset analog exists");
    let nodes = (spec.nodes as f64 * scale) as u32;
    let edges = (spec.edges as f64 * scale) as usize;
    let graph_seed = Rng::derive(seed, name).next_u64();
    eh_graph::gen::power_law(nodes, edges, spec.exponent, graph_seed)
}

/// A closed loop probes the host at most this often.
const PROBE_EVERY: Duration = Duration::from_millis(25);

/// The host-speed probe: one iteration of `eh_baselines`' pairwise
/// (hash-join) PageRank on a fixed graph that depends on no seed and no
/// engine code. Returns its wall time in ms (0.56 ms at the fastest and
/// 0.7 to 1.0 ms typically on a shared 2-vCPU "Intel(R) Xeon(R)
/// Processor" host).
///
/// Of the engine-independent probes tried (scalar and AVX2 merge
/// intersections, bitset AND, random gathers, sorting, `BTreeMap` and
/// `HashMap` updates, the low-level PageRank, the pairwise triangle
/// count, larger graphs), this hash-join code
/// tracked the engine's slow-downs on a shared host most closely, so
/// engine time over probe time stays the steadiest.
pub fn probe_host() -> f64 {
    static GRAPH: OnceLock<eh_core::Graph> = OnceLock::new();
    let g = GRAPH.get_or_init(|| eh_graph::gen::power_law(3_000, 20_000, 2.6, 0x5EED));
    let (ranks, d) =
        timed(|| eh_baselines::pairwise::pagerank(std::hint::black_box(&g.edges), g.num_nodes, 1));
    std::hint::black_box(ranks);
    ms(d)
}

/// How engine time scales with probe time on a shared host: when the
/// probe takes `k` times as long, the engine's queries take about
/// `k^PROBE_EXPONENT` times as long. On a shared 2-vCPU "Intel(R)
/// Xeon(R) Processor" host, across eight 15-second `pattern` runs whose
/// median probe ranged from 0.73 to 1.05 ms, the log-log slope of each
/// class's raw median against the run's median probe was 1.09 to 1.34
/// (4-clique 1.13, PageRank 1.24, triangle 1.34); a second set of eight
/// gave 1.17 to 1.47 for 4-clique, lollipop, barbell and PageRank. Between
/// those two sets, whose median probes differed by 12%, the class medians
/// moved by 2.4% to 7.5% when divided by the probe and by 0% to 4.4% when
/// divided by the probe to this power.
pub const PROBE_EXPONENT: f64 = 1.2;

/// `value_ms` in probe units, given the host probe `probe_ms` taken
/// around it: `value_ms / probe_ms^PROBE_EXPONENT`, with both in ms.
pub fn in_probe_units(value_ms: f64, probe_ms: f64) -> f64 {
    value_ms / probe_ms.powf(PROBE_EXPONENT)
}

/// Set-up times, each with the host probes taken around it.
#[derive(Default)]
pub struct Setups {
    raw_s: Vec<f64>,
    /// Each set-up's time in probe units, against the median of the four
    /// probes around it.
    in_probes: Vec<f64>,
}

impl Setups {
    /// Run one set-up and record its time.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let mut probes: Vec<f64> = (0..2).map(|_| probe_host()).collect();
        let (out, d) = timed(setup);
        probes.extend((0..2).map(|_| probe_host()));
        self.raw_s.push(d.as_secs_f64());
        self.in_probes.push(in_probe_units(ms(d), median(&probes)));
        out
    }

    /// `setup_s`: the median set-up in probe units, divided by 1000, that
    /// is, in seconds at a host probe of 1 ms. Converting back at a probe
    /// time measured in the run (such as its fastest probe) adds that
    /// probe's own run-to-run noise, which was larger than the set-ups'
    /// in probe units. The raw median goes to the notes.
    pub fn report(&self, rep: &mut crate::Report) {
        rep.note(format!(
            "raw setup_s = {:.6} s (median of {})",
            median(&self.raw_s),
            self.raw_s.len()
        ));
        rep.metric("setup_s", median(&self.in_probes) / 1e3, "s");
    }
}

/// What a closed loop observed: each request's class, latency and
/// completion time, every answer, the loop's wall time, and the host
/// probes taken between requests.
///
/// Request times are reported in probe units: each request's wall time
/// divided by the median of the host probes taken just before and just
/// after it (see [`Loop::probe_near`]), raised to [`PROBE_EXPONENT`]. The shared host this benchmark
/// was built on runs the same code at speeds up to about 1.7x apart,
/// switching every 0.1 to a few seconds; a probe taken within
/// milliseconds of a request saw the same host state, so the ratio
/// cancels most of that. The probe runs no engine code, so an engine
/// change cannot move it.
pub struct Loop<T> {
    pub lat_ms: Vec<Vec<f64>>,
    pub all_ms: Vec<f64>,
    pub class: Vec<usize>,
    /// When each request completed, seconds from the loop's start.
    pub done_s: Vec<f64>,
    pub answers: Vec<(usize, Result<T, String>)>,
    pub elapsed: Duration,
    pub probe_ms: Vec<f64>,
    pub probe_at_s: Vec<f64>,
    /// Probes discarded because concurrent work overlapped them.
    pub probes_dropped: usize,
}

impl<T> Loop<T> {
    pub fn completed(&self) -> usize {
        self.all_ms.len()
    }

    /// The host's probe time at `t` (seconds from the loop's start): the
    /// median of the two probes before `t` and the two after it.
    pub fn probe_near(&self, t: f64) -> f64 {
        let j = self.probe_at_s.partition_point(|&p| p <= t);
        let lo = j.saturating_sub(2);
        let hi = (j + 2).min(self.probe_ms.len());
        median(&self.probe_ms[lo..hi])
    }

    /// `values_ms`, each ending at the matching `done_s`, in probe units.
    pub fn in_probes(&self, done_s: &[f64], values_ms: &[f64]) -> Vec<f64> {
        done_s
            .iter()
            .zip(values_ms)
            .map(|(&t, &v)| in_probe_units(v, self.probe_near(t - v / 2e3)))
            .collect()
    }

    fn all_in_probes(&self) -> Vec<f64> {
        self.in_probes(&self.done_s, &self.all_ms)
    }

    /// Median time of class `c`, in probe units.
    pub fn class_median(&self, c: usize) -> f64 {
        let rel: Vec<f64> = self
            .all_in_probes()
            .into_iter()
            .zip(&self.class)
            .filter(|&(_, &k)| k == c)
            .map(|(r, _)| r)
            .collect();
        median(&rel)
    }

    /// Latency percentile `p` over all classes, in probe units.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.all_in_probes(), p)
    }

    /// Requests completed per probe unit of request time.
    pub fn rate(&self) -> f64 {
        self.completed() as f64 / self.all_in_probes().iter().sum::<f64>()
    }

    /// Requests per second over the whole loop, probes included.
    pub fn raw_rate(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Class order cycling through `0..n`.
pub fn round_robin(n: usize) -> impl FnMut() -> usize {
    let mut next = 0;
    move || {
        next += 1;
        (next - 1) % n
    }
}

/// Seeded class choice: class `i` with probability `weights[i]`.
pub fn weighted<'a>(weights: &'a [f64], rng: &'a mut Rng) -> impl FnMut() -> usize + 'a {
    move || {
        let x = rng.unit();
        let mut acc = 0.0;
        weights
            .iter()
            .position(|p| {
                acc += p;
                x < acc
            })
            .unwrap_or(weights.len() - 1)
    }
}

/// Closed loop with one client: `pick` chooses the next request's
/// class, `run` issues it and waits for the answer; the next request is
/// sent only after the previous one completes. Runs for `dur`, probing
/// the host's speed between requests every `PROBE_EVERY`.
///
/// `busy`, if given, is a counter that concurrent work keeps odd while
/// it runs: a probe is kept only if the counter reads even and unchanged
/// around it, so the probe never competes with the workload's own
/// threads. A dropped probe is retried after the next request.
pub fn closed_loop<T>(
    dur: Duration,
    classes: usize,
    busy: Option<&AtomicU64>,
    mut pick: impl FnMut() -> usize,
    mut run: impl FnMut(usize) -> Result<T, String>,
) -> Loop<T> {
    let mut out = Loop {
        lat_ms: vec![Vec::new(); classes],
        all_ms: Vec::new(),
        answers: Vec::new(),
        elapsed: Duration::ZERO,
        class: Vec::new(),
        done_s: Vec::new(),
        probe_ms: Vec::new(),
        probe_at_s: Vec::new(),
        probes_dropped: 0,
    };
    let start = Instant::now();
    // A probe kept, or `false` if concurrent work overlapped it.
    let probe = |out: &mut Loop<T>| {
        let busy_now = || busy.map_or(0, |b| b.load(Ordering::SeqCst));
        let before = busy_now();
        let at = start.elapsed().as_secs_f64();
        let p = probe_host();
        let kept = before % 2 == 0 && busy_now() == before;
        if kept {
            out.probe_ms.push(p);
            out.probe_at_s.push(at);
        } else {
            out.probes_dropped += 1;
        }
        kept
    };
    let mut last_probe: Option<Instant> = None;
    while start.elapsed() < dur {
        if last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) && probe(&mut out) {
            last_probe = Some(Instant::now());
        }
        let class = pick();
        let (answer, d) = timed(|| run(class));
        out.lat_ms[class].push(ms(d));
        out.all_ms.push(ms(d));
        out.class.push(class);
        out.done_s.push(start.elapsed().as_secs_f64());
        out.answers.push((class, answer));
    }
    // A last probe, so the final requests have probes on both sides.
    for _ in 0..100 {
        if probe(&mut out) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    out.elapsed = start.elapsed();
    out
}

/// FNV-1a digest of a byte stream: answers are kept as digests during
/// the timed loop and checked afterwards.
pub fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}
