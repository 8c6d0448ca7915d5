//! Timing, percentiles, host-speed calibration and memory readings
//! shared by every workload.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// One timed operation: a label naming its input and its latency.
pub struct Sample {
    pub label: &'static str,
    pub ms: f64,
}

/// One measured round: its timed operations, the wall seconds it
/// spent on them (output checks excluded), and the host's slowdown
/// while it ran (see [`calibration_ms`]); every figure a run reports is
/// divided by it.
pub struct Round {
    pub samples: Vec<Sample>,
    pub seconds: f64,
    pub slowdown: f64,
}

/// Everything a workload hands back for the result line.
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// Every operation that did not fail passed its checks.
    pub correct: bool,
    /// Set-up time of each repetition; the result reports the median.
    pub setups_s: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Pool several runs of one workload into one outcome.
    pub fn merge(parts: Vec<Outcome>) -> Outcome {
        let mut it = parts.into_iter();
        let mut all = it.next().expect("at least one part");
        for o in it {
            all.rounds.extend(o.rounds);
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.correct &= o.correct;
            all.setups_s.extend(o.setups_s);
            all.peak_rss_mb = all.peak_rss_mb.max(o.peak_rss_mb);
        }
        all
    }

    /// Every operation's latency at reference host speed, in round
    /// order.
    pub fn latencies(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| s.ms / r.slowdown))
            .collect()
    }

    /// Median over rounds of each round's median latency at reference
    /// host speed, so that one slow stretch of a run moves the figure by
    /// at most its rounds.
    pub fn op_p50_ms(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| median(&r.samples.iter().map(|s| s.ms).collect::<Vec<_>>()) / r.slowdown)
            .collect();
        median(&per_round)
    }

    /// Median over rounds of each round's operations per second at
    /// reference host speed.
    pub fn ops_per_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.samples.len() as f64 * r.slowdown / r.seconds)
            .collect();
        median(&per_round)
    }

    /// Median over rounds of the host slowdown, for the run header.
    pub fn slowdown(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.slowdown).collect::<Vec<_>>())
    }
}

/// About the median of [`calibration_ms`] on the reference host (2 vCPU
/// virtual machine, release build); it only sets the scale of the
/// reported figures.
const CALIBRATION_REF_MS: f64 = 8.0;

/// One calibration sample: the geometric mean of the milliseconds three
/// fixed kernels take (small allocations, a hash map of 100 000 entries
/// probed at random, a sort of 300 000 integers). The kernels use only
/// the standard library, so a change to the program under test leaves
/// them alone; they run between operations, never inside one.
///
/// The benchmark's host is shared: neighbours that thrash the shared
/// caches slow this program's allocation- and cache-bound work by 20-45%
/// for stretches of seconds to minutes, and the kernels slow with it. A round's
/// figures are divided by its slowdown (the median of the samples taken
/// before, during and after it, over [`CALIBRATION_REF_MS`]), which
/// cancels most of that drift while a change to the program itself
/// still moves them in full. The median is taken over samples spread
/// through the round (see [`Calibration`]), because the neighbours' load
/// changes from second to second.
fn calibration_ms() -> f64 {
    type Map = HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;
    let xorshift = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    let (_, alloc) = time_ms(|| {
        let mut total = 0;
        for k in 0..6_000u64 {
            let v: Vec<u64> = (0..k % 64 + 8).collect();
            let m: Map = v.iter().map(|&x| (x, x * 3)).collect();
            total += black_box(m).len();
        }
        total
    });
    let (_, hash) = time_ms(|| {
        let mut x = 88_172_645_463_325_252u64;
        let m: Map = (0..100_000).map(|i| (xorshift(&mut x), i)).collect();
        let keys: Vec<u64> = m.keys().copied().collect();
        (0..200_000).map(|i| m[&keys[(i * 7_919) % keys.len()]]).sum::<u64>()
    });
    let (_, sort) = time_ms(|| {
        let mut x = 1u64;
        let mut v: Vec<u64> = (0..300_000).map(|_| xorshift(&mut x)).collect();
        v.sort_unstable();
        black_box(v[v.len() / 2])
    });
    (alloc * hash * sort).cbrt()
}

/// Calibration samples taken at each round boundary.
const CALIBRATION_SAMPLES: usize = 3;

/// Seconds between calibration samples inside a round.
const CALIBRATION_EVERY_S: f64 = 0.25;

fn calibrate() -> Vec<f64> {
    (0..CALIBRATION_SAMPLES).map(|_| calibration_ms()).collect()
}

/// The host's slowdown over a stretch `samples` were taken in.
fn slowdown(samples: &[f64]) -> f64 {
    median(samples) / CALIBRATION_REF_MS
}

/// The calibration samples of one round: those at its boundaries and
/// those taken between its operations, so that they cover the stretch
/// the operations ran in.
pub struct Calibration {
    samples: Vec<f64>,
    spent_s: f64,
    last: Instant,
}

impl Calibration {
    /// Call after each timed operation: takes a sample once
    /// [`CALIBRATION_EVERY_S`] have passed since the last one. The time
    /// it takes is left out of the round's measured time.
    pub fn between_ops(&mut self) {
        if self.last.elapsed().as_secs_f64() >= CALIBRATION_EVERY_S {
            let t = Instant::now();
            self.samples.push(calibration_ms());
            self.spent_s += t.elapsed().as_secs_f64();
            self.last = Instant::now();
        }
    }
}

/// Samples a run keeps beyond its tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile of `values` that still has
/// [`TAIL_BEYOND`] samples beyond it: the value at rank `n - 10` of the
/// `n` sorted samples, which is percentile `100 (n - 10) / n`. Returns
/// `(value, percentile)`; `values` needs more than [`TAIL_BEYOND`]
/// samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    assert!(
        n > TAIL_BEYOND,
        "a tail needs more than {TAIL_BEYOND} samples"
    );
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    (sorted(values)[n - TAIL_BEYOND - 1], pct)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

/// Nearest-rank median of an unsorted, non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    v[v.len().div_ceil(2) - 1]
}

/// Time one closure in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Set-up repetitions: at least this many, and more until this many
/// seconds have gone into set-up, so that the reported median rests on
/// many samples even where one set-up takes a few milliseconds.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

/// Run `setup` repeatedly (see [`SETUP_MIN_S`]) and return each
/// repetition's seconds at reference host speed (divided by the
/// slowdown over the set-up phase, with a calibration sample before
/// each repetition and after the last) with the last repetition's
/// value; `discard` receives every earlier value, in order.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut cal = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        cal.push(calibration_ms());
        let (got, ms) = time_ms(&mut setup);
        times.push(ms / 1e3);
        if let Some(old) = kept.replace(got) {
            discard(old);
        }
    }
    cal.push(calibration_ms());
    let s = slowdown(&cal);
    (
        times.into_iter().map(|t| t / s).collect(),
        kept.expect("set-up ran"),
    )
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in MiB.
pub fn proc_status_mb(pid: &str, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("read /proc/{pid}/status: {e}"));
    let line = text
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/{pid}/status"));
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed {field} line: {line}"));
    kb / 1024.0
}

/// A run stops early, after a whole round, once its measured time
/// passes this many times `--seconds`; only a program far slower than
/// the one a round length was taken on gets there.
const OVERRUN: f64 = 4.0;

/// Rounds in a run of `seconds`, where one round took `round_s` seconds
/// on the reference host: a fixed list of work per run, so every run of
/// a workload holds the same operations and its tail percentile stays
/// put.
pub fn planned_rounds(seconds: f64, round_s: f64) -> usize {
    (seconds / round_s).ceil().max(1.0) as usize
}

/// Run `planned` whole rounds (fewer past the [`OVERRUN`] limit, but
/// more while the run holds no more than [`TAIL_BEYOND`] operations).
/// `round(i)` runs round `i` and returns its timed operations and the
/// seconds it spent outside them (checking outputs, making inputs),
/// which the measured time leaves out. `round` calls
/// [`Calibration::between_ops`] after each operation; calibration
/// samples are also taken before the first round and after each.
pub fn run_rounds(
    seconds: f64,
    planned: usize,
    mut round: impl FnMut(usize, &mut Calibration) -> (Vec<Sample>, f64),
) -> Vec<Round> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut ops = 0;
    let mut before = calibrate();
    while (rounds.len() < planned && measured < OVERRUN * seconds) || ops <= TAIL_BEYOND {
        let mut cal = Calibration {
            samples: before,
            spent_s: 0.0,
            last: Instant::now(),
        };
        let t = Instant::now();
        let (samples, check_s) = round(rounds.len(), &mut cal);
        let seconds = t.elapsed().as_secs_f64() - check_s - cal.spent_s;
        measured += seconds;
        ops += samples.len();
        before = calibrate();
        cal.samples.extend(&before);
        rounds.push(Round {
            samples,
            seconds,
            slowdown: slowdown(&cal.samples),
        });
    }
    rounds
}
