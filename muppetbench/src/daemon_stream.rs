//! `daemon-stream`: a closed loop of one client connection driving a
//! `muppetd` process (`muppet-cli serve`) over a Unix socket.
//!
//! One *long* watch, opened during set-up on its own seeded stream,
//! stays open for the whole run: every round pushes it the stream's
//! next delta, and the run's last request unwatches it, so its warm
//! state grows with the run's length. Besides, a round replays
//! [`STREAMS`] short seeded mixed-profile delta streams of its own at
//! once: it
//! opens a watch on each stream's base mesh, pushes the deltas to the
//! watches in turn with `push_delta` (writes, each a warm re-solve),
//! with a read request (`reconcile`, `extract_envelope`,
//! `check_conformance`) after each watch's every [`READ_EVERY`]th delta,
//! and closes the watches. Reads name one of
//! [`HOT`] snapshots with one of three read kinds, each key read twice
//! in a row. The daemon runs with a 4-entry result cache, smaller than
//! the 24 keys the reads cycle through, so the first read of each pair
//! misses, the second hits, and every round sends the same requests
//! on its own streams.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use muppet_daemon::json::Json;
use muppet_daemon::{Client, Endpoint, Engine, EngineConfig, Op, Request, Response, SessionSpec};
use muppet_goals::collect_goal_ports;
use muppet_scenario::{
    conflicting_ports_of, generate_stream, ConfigDelta, ScenarioParams, StreamParams,
    StreamProfile,
};
use muppet_stream::{StreamSession, StreamSpec};

use crate::check;
use crate::measure::{planned_rounds, proc_status_mb, repeat_setup, run_rounds, Outcome, Sample};
use crate::trace::{Probe, Tracer};

/// Short streams per round, and deltas per short stream.
const STREAMS: usize = 12;
const DELTAS: usize = 20;
/// Deltas of the long stream, one per round: a run ends after this
/// many rounds at the latest (more than 180 s of rounds on a 2-core
/// host).
const LONG_DELTAS: usize = 240;
/// A read request follows every this many deltas.
const READ_EVERY: usize = 5;
/// Result-cache entries of the daemon under test.
const CACHE_CAP: usize = 4;
/// Snapshots the reads of a round name. With three read kinds that is
/// 24 cache keys, more than [`CACHE_CAP`], each read once a round as a
/// pair; eight snapshots rather than two keep a run's read costs from
/// following two seeded meshes (with two, `check_conformance` took
/// 1.2-3.0 ms and `extract_envelope` 0.6-2.5 ms depending on the seed).
/// The snapshots are the streams' base meshes, all of one size; states
/// halfway through the streams varied in size with the seed, and their
/// warm read sessions moved the daemon's peak RSS by up to 100 MiB.
const HOT: usize = 8;

const BASE: ScenarioParams = ScenarioParams {
    services: 10,
    ports_per_service: 2,
    extra_ports: 2,
    istio_goals: 8,
    k8s_goals: 2,
    conflict_fraction: 0.0,
    flexible_fraction: 0.0,
    namespaces: 2,
    tiers: 2,
    port_pool: 6,
    bounded: false,
    seed: 0,
};

/// The larger mesh each round opens one watch on: a cold solve well
/// above any other request's cost, so a run's slowest requests are these
/// rather than the few ordinary ones a scheduling delay happens to hit.
const BIG: ScenarioParams = ScenarioParams {
    services: 40,
    istio_goals: 32,
    ..BASE
};

const READS: [(Op, &str); 3] = [
    (Op::Reconcile, "reconcile"),
    (Op::ExtractEnvelope, "extract_envelope"),
    (Op::CheckConformance, "check_conformance"),
];

/// A snapshot a read request names: its wire content and its
/// constructed label.
#[derive(Clone)]
struct Snapshot {
    manifests: String,
    k8s: String,
    istio: String,
    expected_sat: bool,
}

impl Snapshot {
    fn spec(&self, extra_ports: Vec<u16>) -> SessionSpec {
        SessionSpec {
            manifests: self.manifests.clone(),
            k8s_goals: self.k8s.clone(),
            istio_goals: self.istio.clone(),
            extra_ports,
            ..SessionSpec::default()
        }
    }
}

/// One generated stream: base snapshot and delta lines with the label
/// of the state each leaves.
struct Stream {
    base: Snapshot,
    extras: Vec<u16>,
    deltas: Vec<(String, bool)>,
}

/// The streams one round watches: [`STREAMS`] short streams over
/// [`BASE`]-sized meshes and one [`BIG`] mesh without deltas.
struct RoundInputs {
    short: Vec<Stream>,
    big: Stream,
    /// Generated short streams left out (see [`make_stream`]).
    left_out: usize,
}

/// The inputs set-up makes: round 0's streams, whose first [`HOT`]
/// short-stream base meshes every round's reads name, and the long
/// stream.
struct Inputs {
    round0: RoundInputs,
    long: Stream,
    /// Generated streams left out in round 0 and for the long stream.
    left_out: usize,
}

/// Seed of short stream `j` of round `round` (`j < 16`, `round < 256`;
/// the big mesh is `j == STREAMS`), or of the long stream
/// (`round == 255`, `j == 15`).
fn stream_seed(seed: u64, round: usize, j: usize) -> u64 {
    seed.wrapping_mul(4096)
        .wrapping_add((round * 16 + j) as u64)
}

/// The streams of round `round`: every round replays its own seeded
/// streams, so a run's figures average over several hundred streams
/// rather than repeat one round's slowest delta. Several streams per
/// round make each round's cost average over their sat/unsat histories.
fn make_round(seed: u64, round: usize) -> RoundInputs {
    let mut left_out = 0;
    let short = (0..STREAMS)
        .map(|j| accepted_stream(stream_seed(seed, round, j), DELTAS, &mut left_out))
        .collect();
    RoundInputs {
        short,
        big: make_stream(stream_seed(seed, round, STREAMS), BIG, 0)
            .expect("a stream without deltas is accepted"),
        left_out,
    }
}

fn make_inputs(seed: u64) -> Inputs {
    let round0 = make_round(seed, 0);
    let mut left_out = round0.left_out;
    let long = accepted_stream(stream_seed(seed, 255, 15), LONG_DELTAS, &mut left_out);
    Inputs {
        round0,
        long,
        left_out,
    }
}

/// The first stream of `len` deltas over a [`BASE`]-sized mesh, from
/// stream seed `seed` on (`seed`, then `seed + 2^40`, ...), that the
/// stream session accepts throughout; counts the streams left out.
fn accepted_stream(seed: u64, len: usize, left_out: &mut usize) -> Stream {
    (0u64..)
        .find_map(|k| {
            let stream = make_stream(seed.wrapping_add(k << 40), BASE, len);
            *left_out += stream.is_none() as usize;
            stream
        })
        .expect("the candidate seeds never run out")
}

/// A seeded mixed-profile stream of `len` deltas over a `params`-sized
/// base mesh, or `None` if one of its deltas leaves a goal row on a port
/// outside the stream's port universe. The generator can upsert a ban
/// on a pool port no service exposes, which `StreamSession` rejects
/// ("goal port … missing from the port universe"); such streams are
/// left out (see the `FOUND:` line on `generate_stream` in
/// `CHANGES.md`).
fn make_stream(seed: u64, params: ScenarioParams, len: usize) -> Option<Stream> {
    let stream = generate_stream(StreamParams {
        base: ScenarioParams {
            seed: seed.wrapping_mul(0x9e37_79b9),
            ..params
        },
        profile: StreamProfile::Mixed,
        deltas: len,
        target_services: 0,
        seed,
    });
    let (manifests, k8s, istio, extras) = stream.base.wire_content();
    let base_sat = stream.base.expected_label().matches_success(true);
    let base = Snapshot {
        manifests,
        k8s,
        istio,
        expected_sat: base_sat,
    };
    // Replay the parts to label every intermediate state. The watch's
    // port universe is the mesh's ports plus the extras and the base
    // goal tables' ports, which `StreamSpec::from_wire` folds in.
    let mut mesh = stream.base.mesh.clone();
    let mut k8s = stream.base.k8s_goals.clone();
    let mut istio = stream.base.istio_goals.clone();
    let mut fixed_ports = collect_goal_ports(&k8s, &istio);
    fixed_ports.extend(&extras);
    let mut deltas = Vec::new();
    for d in &stream.deltas {
        d.apply_parts(&mut mesh, &mut k8s, &mut istio)
            .expect("generated stream replays");
        let universe: BTreeSet<u16> = mesh.all_ports().union(&fixed_ports).copied().collect();
        if !collect_goal_ports(&k8s, &istio).is_subset(&universe) {
            return None;
        }
        deltas.push((
            d.to_string(),
            conflicting_ports_of(&mesh, &k8s, &istio).is_empty(),
        ));
    }
    Some(Stream {
        base,
        extras,
        deltas,
    })
}

/// A `muppetd` child process, shut down (or killed) on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(cli: &Path, socket: PathBuf) -> Daemon {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(cli)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args([
                "--workers",
                "1",
                "--threads",
                "1",
                "--cache-cap",
                &CACHE_CAP.to_string(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", cli.display()));
        Daemon { child, socket }
    }

    /// Connect, retrying while the daemon binds its socket.
    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match Endpoint::Unix(self.socket.clone()).connect(Some(Duration::from_secs(120))) {
                Ok(c) => return c,
                Err(e) if Instant::now() > deadline => panic!("muppetd never listened: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stop(mut self, client: &mut Client) {
        let _ = client.roundtrip(&Request::new(Op::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn watch_request(inp: &Stream) -> Request {
    Request::new(Op::Watch).with_spec(inp.base.spec(inp.extras.clone()))
}

fn push_request(watch: &str, delta: &str) -> Request {
    let mut r = Request::new(Op::PushDelta);
    r.watch = Some(watch.to_string());
    r.delta = Some(delta.to_string());
    r
}

fn unwatch_request(watch: &str) -> Request {
    let mut r = Request::new(Op::Unwatch);
    r.watch = Some(watch.to_string());
    r
}

/// Read request number `k` of a round. Reads come in pairs on one key;
/// the keys cycle through the [`HOT`] hot snapshots (the base meshes
/// of round 0's first streams) times the three read kinds. Every round
/// reads the same snapshots, so the daemon keeps a fixed set of warm
/// read sessions.
fn read_request(inp: &Inputs, k: usize) -> (Request, &'static str, bool) {
    let pair = k / 2;
    let hot = &inp.round0.short[pair % HOT];
    let (op, label) = READS[(pair / HOT) % READS.len()];
    let mut r = Request::new(op).with_spec(hot.base.spec(hot.extras.clone()));
    r.threads = Some(1);
    (r, label, hot.base.expected_sat)
}

/// The watch id a `watch` response carries.
fn watch_id(resp: &Response) -> String {
    resp.result
        .get("watch")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("watch failed: {:?}", resp.error))
        .to_string()
}

/// The verdict a response carries: a push/watch `verdict` line or a
/// reconcile `success` flag.
fn verdict_sat(v: &Json) -> Option<bool> {
    if let Some(s) = v.get("verdict").and_then(Json::as_str) {
        return Some(s.starts_with("sat"));
    }
    v.get("success").and_then(Json::as_bool)
}

/// One request of a round, before it is sent.
struct Step {
    req: Request,
    label: &'static str,
    /// The constructed verdict the response must carry, if any.
    expect: Option<bool>,
    read: bool,
}

impl Step {
    fn write(req: Request, label: &'static str, expect: Option<bool>) -> Step {
        Step {
            req,
            label,
            expect,
            read: false,
        }
    }
}

/// The streams a round opens watches on, in order, with the label of
/// each `watch` request: the big mesh first, then the short streams.
fn watched(ri: &RoundInputs) -> impl Iterator<Item = (&Stream, &'static str)> {
    std::iter::once((&ri.big, "watch_big")).chain(ri.short.iter().map(|s| (s, "watch")))
}

/// The requests of round `round` after its `watch`es, with `watches`
/// the ids the watches on [`watched`] returned and `long` the long
/// watch's id: the long watch receives its next delta, every short
/// watch receives its deltas in turn, a read follows each short watch's
/// every [`READ_EVERY`]th delta, and the watches close at the end. All
/// short watches stay open together, so the daemon holds the warm state
/// of every stream at once.
fn round_steps(
    inp: &Inputs,
    ri: &RoundInputs,
    watches: &[String],
    long: &str,
    round: usize,
) -> Vec<Step> {
    let (big, short) = watches.split_first().expect("a round watches the big mesh");
    let (delta, sat) = &inp.long.deltas[round];
    let mut steps = vec![Step::write(
        push_request(long, delta),
        "push_long",
        Some(*sat),
    )];
    let mut reads = 0;
    for i in 0..DELTAS {
        for (stream, watch) in ri.short.iter().zip(short) {
            let (delta, sat) = &stream.deltas[i];
            steps.push(Step::write(
                push_request(watch, delta),
                "push_delta",
                Some(*sat),
            ));
            if (i + 1) % READ_EVERY == 0 {
                let (req, label, sat) = read_request(inp, reads);
                let expect = (req.op == Op::Reconcile).then_some(sat);
                steps.push(Step {
                    req,
                    label,
                    expect,
                    read: true,
                });
                reads += 1;
            }
        }
    }
    for watch in short {
        steps.push(Step::write(unwatch_request(watch), "unwatch", None));
    }
    steps.push(Step::write(unwatch_request(big), "unwatch_big", None));
    steps
}

/// Check a response; `Err` marks the request failed.
fn check_response(label: &str, resp: &Response, expect: Option<bool>) -> Result<(), String> {
    if !resp.ok {
        return Err(format!(
            "{label}: {}",
            resp.error.as_deref().unwrap_or("error")
        ));
    }
    match expect {
        None => Ok(()),
        Some(want) => {
            let got = verdict_sat(&resp.result).ok_or_else(|| format!("{label}: no verdict"))?;
            check::verdict(label, want, got)
        }
    }
}

/// Per-layer accumulators: sums and counts of the client round trips
/// by kind, of the in-process replays, and the read cache outcomes.
#[derive(Default)]
struct Layers {
    write: (f64, usize),
    read: (f64, usize),
    engine: (f64, usize),
    push: (f64, usize),
    encoded: u64,
    reused: u64,
    hits: u64,
    misses: u64,
    rounds: usize,
}

/// Send one request and time its round trip.
fn timed(
    client: &mut Client,
    req: &Request,
    label: &'static str,
    read: bool,
    p: &mut Probe<'_>,
    l: &mut Layers,
) -> (Response, Sample) {
    let (resp, ms) = p.span("op", |p| {
        p.span("daemon.roundtrip", |_| client.roundtrip(req)).0
    });
    let resp = resp.unwrap_or_else(|e| panic!("muppetd transport failed on {label}: {e}"));
    let acc = if read { &mut l.read } else { &mut l.write };
    acc.0 += ms;
    acc.1 += 1;
    if read {
        if resp.cached {
            l.hits += 1
        } else {
            l.misses += 1
        }
    }
    (resp, Sample { label, ms })
}

/// The traced run's in-process replica of the daemon's work:
/// `Engine::handle` on the same requests, and `StreamSession::push` on
/// the same deltas, with the long watch and long stream session kept
/// open across rounds like the daemon's.
struct Replay {
    engine: Engine,
    long_watch: String,
    long_session: StreamSession,
}

fn stream_session(inp: &Stream) -> StreamSession {
    let spec = StreamSpec::from_wire(
        &inp.base.manifests,
        &inp.base.k8s,
        &inp.base.istio,
        &inp.extras,
    )
    .expect("base spec parses");
    StreamSession::with_threads(spec, 1)
        .expect("stream opens")
        .0
}

impl Replay {
    fn open(inp: &Inputs) -> Replay {
        let engine = Engine::new(EngineConfig {
            cache_cap: CACHE_CAP,
            threads: 1,
            ..EngineConfig::default()
        });
        let long_watch = watch_id(&engine.handle(&watch_request(&inp.long), None));
        Replay {
            engine,
            long_watch,
            long_session: stream_session(&inp.long),
        }
    }

    fn handle(&self, t: &mut Tracer, op: u64, req: &Request, l: &mut Layers) -> Response {
        let (resp, ms) = t.span("daemon.engine", op, |_| self.engine.handle(req, None));
        l.engine.0 += ms;
        l.engine.1 += 1;
        resp
    }

    fn push(t: &mut Tracer, op: u64, session: &mut StreamSession, line: &str, l: &mut Layers) {
        let delta = ConfigDelta::parse(line).expect("generated delta parses");
        let (stats, ms) = t.span("stream.push", op, |_| {
            session.push(&delta).expect("delta applies")
        });
        l.push.0 += ms;
        l.push.1 += 1;
        l.encoded += stats.groups_encoded;
        l.reused += stats.groups_reused;
    }

    /// Replay round `round`'s requests and deltas.
    fn round(
        &mut self,
        t: &mut Tracer,
        inp: &Inputs,
        ri: &RoundInputs,
        round: usize,
        l: &mut Layers,
    ) {
        let op = t.next_op();
        let ((), _) = t.span("replay", op, |t| {
            let watches: Vec<String> = watched(ri)
                .map(|(s, _)| watch_id(&self.handle(t, op, &watch_request(s), l)))
                .collect();
            for s in round_steps(inp, ri, &watches, &self.long_watch, round) {
                self.handle(t, op, &s.req, l);
            }
            Replay::push(t, op, &mut self.long_session, &inp.long.deltas[round].0, l);
            for s in &ri.short {
                let mut session = stream_session(s);
                for (line, _) in &s.deltas {
                    Replay::push(t, op, &mut session, line, l);
                }
            }
        });
        l.rounds += 1;
    }

    fn close(self, t: &mut Tracer, l: &mut Layers) {
        let op = t.next_op();
        let ((), _) = t.span("replay", op, |t| {
            self.handle(t, op, &unwatch_request(&self.long_watch), l);
        });
    }
}

/// The long watch's `watch` response, with its initial verdict where
/// [`check_response`] looks for it.
fn initial_verdict(resp: Response) -> Response {
    Response {
        result: resp.result.get("initial").cloned().unwrap_or(Json::Null),
        ..resp
    }
}

/// Seconds a round of requests took on the reference host (2 vCPU, release build):
/// a run of `--seconds` plans that many seconds of rounds.
const ROUND_S: f64 = 1.25;

pub fn run(seed: u64, seconds: f64, cli: &Path, mut tracer: Option<&mut Tracer>) -> Outcome {
    std::fs::create_dir_all(crate::OUT_DIR).expect("create the output directory");
    // Set-up: generate the streams, start muppetd, connect, warm up with
    // a short watch, open the long watch. Repeated so its median is
    // steady; the last daemon serves the measured rounds.
    let mut rep = 0;
    let (setups_s, (inp, daemon, mut client, long_watch)) = repeat_setup(
        || {
            let inp = make_inputs(seed);
            rep += 1;
            let daemon = Daemon::start(
                cli,
                PathBuf::from(format!(
                    "{}/muppetd-{}-{rep}.sock",
                    crate::OUT_DIR,
                    std::process::id()
                )),
            );
            let mut client = daemon.connect();
            let resp = client
                .roundtrip(&watch_request(&inp.round0.short[0]))
                .expect("warm-up watch");
            let id = watch_id(&resp);
            for (delta, _) in inp.round0.short[0].deltas.iter().take(READ_EVERY) {
                client
                    .roundtrip(&push_request(&id, delta))
                    .expect("warm-up push");
            }
            client
                .roundtrip(&unwatch_request(&id))
                .expect("warm-up unwatch");
            let long = client
                .roundtrip(&watch_request(&inp.long))
                .expect("long watch");
            (inp, daemon, client, long)
        },
        |(_, daemon, mut client, _)| daemon.stop(&mut client),
    );
    let mut correct = true;
    if let Err(e) = check_response(
        "watch_long",
        &initial_verdict(long_watch.clone()),
        Some(inp.long.base.expected_sat),
    ) {
        eprintln!("daemon-stream: {e}");
        correct = false;
    }
    let long_watch = watch_id(&long_watch);
    let rss_after_warmup = proc_status_mb(&daemon.pid(), "VmRSS");

    let mut replay = tracer.is_some().then(|| Replay::open(&inp));
    let mut layers = Layers::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut left_out = inp.left_out;
    // Counts a failed request, or marks the run incorrect on a wrong
    // answer; returns the seconds it spent.
    let mut verify = |label: &str, resp: &Response, expect: Option<bool>| {
        let t = Instant::now();
        if let Err(e) = check_response(label, resp, expect) {
            eprintln!("daemon-stream: {e}");
            if resp.ok {
                correct = false
            } else {
                failed += 1
            }
        }
        t.elapsed().as_secs_f64()
    };
    let mut rounds = run_rounds(
        seconds,
        planned_rounds(seconds, ROUND_S).min(LONG_DELTAS),
        |round, cal| {
            // Later rounds make their streams here, outside the timed
            // requests.
            let t0 = Instant::now();
            let later;
            let ri = if round == 0 {
                &inp.round0
            } else {
                later = make_round(seed, round);
                left_out += later.left_out;
                &later
            };
            let mut samples = Vec::new();
            let mut check_s = t0.elapsed().as_secs_f64();
            let mut watches = Vec::new();
            for (stream, label) in watched(ri) {
                let (resp, s) = timed(
                    &mut client,
                    &watch_request(stream),
                    label,
                    false,
                    &mut Probe::new(tracer.as_deref_mut()),
                    &mut layers,
                );
                samples.push(s);
                watches.push(watch_id(&resp));
                cal.between_ops();
                check_s += verify(
                    label,
                    &initial_verdict(resp),
                    Some(stream.base.expected_sat),
                );
            }
            for step in round_steps(&inp, ri, &watches, &long_watch, round) {
                let (resp, s) = timed(
                    &mut client,
                    &step.req,
                    step.label,
                    step.read,
                    &mut Probe::new(tracer.as_deref_mut()),
                    &mut layers,
                );
                samples.push(s);
                check_s += verify(step.label, &resp, step.expect);
                cal.between_ops();
            }
            if let (Some(t), Some(r)) = (tracer.as_deref_mut(), replay.as_mut()) {
                let t0 = Instant::now();
                r.round(t, &inp, ri, round, &mut layers);
                check_s += t0.elapsed().as_secs_f64();
            }
            attempted += samples.len() as u64;
            (samples, check_s)
        },
    );
    // The run's last request closes the long watch, with all the warm
    // state it gathered; it counts in the last round.
    let t0 = Instant::now();
    let (resp, s) = timed(
        &mut client,
        &unwatch_request(&long_watch),
        "unwatch_long",
        false,
        &mut Probe::new(tracer.as_deref_mut()),
        &mut layers,
    );
    let last = rounds.last_mut().expect("a run has rounds");
    last.samples.push(s);
    last.seconds += t0.elapsed().as_secs_f64();
    attempted += 1;
    verify("unwatch_long", &resp, None);

    let peak_rss_mb = proc_status_mb(&daemon.pid(), "VmHWM");
    if let (Some(t), Some(r)) = (tracer, replay) {
        r.close(t, &mut layers);
        let mean = |(sum, n): (f64, usize)| sum / n.max(1) as f64;
        let rounds = layers.rounds.max(1) as f64;
        let engine_ms = mean(layers.engine);
        let all = (
            layers.write.0 + layers.read.0,
            layers.write.1 + layers.read.1,
        );
        t.add("daemon.write_ms", mean(layers.write));
        t.add("daemon.read_ms", mean(layers.read));
        t.add("daemon.engine_ms", engine_ms);
        t.add("daemon.transport_ms", mean(all) - engine_ms);
        t.add("daemon.cache_hits", layers.hits as f64 / rounds);
        t.add("daemon.cache_misses", layers.misses as f64 / rounds);
        t.add("stream.push_ms", mean(layers.push));
        t.add(
            "stream.groups_encoded",
            layers.encoded as f64 / layers.push.1.max(1) as f64,
        );
        t.add(
            "stream.groups_reused",
            layers.reused as f64 / layers.push.1.max(1) as f64,
        );
        t.add(
            "daemon.rss_growth_mb",
            proc_status_mb(&daemon.pid(), "VmRSS") - rss_after_warmup,
        );
    }
    daemon.stop(&mut client);
    println!(
        "# daemon-stream left out {left_out} generated streams whose deltas the stream session rejects"
    );
    Outcome {
        attempted,
        failed,
        correct,
        rounds,
        setups_s,
        peak_rss_mb,
    }
}
