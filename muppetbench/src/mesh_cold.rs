//! `mesh-cold`: seeded meshes solved cold, from goal tables to a
//! verdict. Unbounded paper-to-mid-scale meshes enter as manifest and
//! CSV text through the mesh domain build (the CLI's path); bounded
//! meshes of hundreds of services go in-process with the generator's
//! offers, because the wire path cannot carry offers (see README).

use muppet::{ReconcileMode, Reconciliation, Session};
use muppet_domain::{ConfigDomain, DomainInput, MeshDomain};
use muppet_scenario::{conflicting_ports_of, generate, Scenario, ScenarioParams};
use std::time::Instant;

use crate::check;
use crate::measure::{planned_rounds, proc_status_mb, repeat_setup, run_rounds, Outcome, Sample};
use crate::replay::{replay, session_problem};
use crate::trace::{Probe, Tracer};

/// How an entry reaches the solver.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Manifest + CSV text through `MeshDomain::build`.
    Wire,
    /// `Scenario::session` with the generator's tight offers.
    Bounded,
}

struct Entry {
    label: &'static str,
    path: Path,
    params: ScenarioParams,
}

const PAPER: ScenarioParams = ScenarioParams {
    services: 12,
    ports_per_service: 2,
    extra_ports: 4,
    istio_goals: 12,
    k8s_goals: 1,
    conflict_fraction: 0.0,
    flexible_fraction: 0.0,
    namespaces: 1,
    tiers: 1,
    port_pool: 0,
    bounded: false,
    seed: 0,
};

const MID: ScenarioParams = ScenarioParams {
    services: 32,
    istio_goals: 30,
    k8s_goals: 2,
    port_pool: 8,
    ..PAPER
};

const BOUNDED: ScenarioParams = ScenarioParams {
    services: 120,
    ports_per_service: 3,
    istio_goals: 60,
    k8s_goals: 3,
    flexible_fraction: 0.1,
    port_pool: 6,
    bounded: true,
    ..PAPER
};

/// The round list: several seeded meshes per class, so a round's cost
/// averages over their goal patterns. Conflicting entries use mesh-wide
/// bans (one namespace, one tier), so every seed gives the same
/// sat/unsat mix.
fn entries() -> Vec<Entry> {
    let e = |label, path, params| Entry {
        label,
        path,
        params,
    };
    let unsat = |p: ScenarioParams| ScenarioParams {
        k8s_goals: 2,
        conflict_fraction: 1.0,
        ..p
    };
    let exists_port = ScenarioParams {
        flexible_fraction: 1.0,
        ..unsat(PAPER)
    };
    vec![
        e("paper-sat", Path::Wire, PAPER),
        e("paper-sat", Path::Wire, PAPER),
        e("paper-unsat", Path::Wire, unsat(PAPER)),
        e("paper-exists-port", Path::Wire, exists_port),
        e("mid-sat", Path::Wire, MID),
        e("mid-sat", Path::Wire, MID),
        e("mid-sat", Path::Wire, MID),
        e("mid-unsat", Path::Wire, unsat(MID)),
        e("mid-unsat", Path::Wire, unsat(MID)),
        e("mid-unsat", Path::Wire, unsat(MID)),
        e("bounded-sat", Path::Bounded, BOUNDED),
        e("bounded-sat", Path::Bounded, BOUNDED),
        e("bounded-sat", Path::Bounded, BOUNDED),
        e("bounded-unsat", Path::Bounded, unsat(BOUNDED)),
        e("bounded-unsat", Path::Bounded, unsat(BOUNDED)),
        e("bounded-unsat", Path::Bounded, unsat(BOUNDED)),
    ]
}

/// One generated input: the scenario plus its wire text.
struct Input {
    label: &'static str,
    path: Path,
    scenario: Scenario,
    wire: DomainInput,
    expected_sat: bool,
}

/// The inputs of round `round`: every round solves its own seeded
/// meshes, so a run's figures average over several hundred meshes
/// rather than repeat one round's slowest.
fn make_inputs(seed: u64, round: usize) -> Vec<Input> {
    let entries = entries();
    let per_round = entries.len();
    entries
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let scenario = generate(ScenarioParams {
                seed: seed
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add((round * per_round + i) as u64),
                ..e.params
            });
            let (manifests, k8s, istio, extra_ports) = scenario.wire_content();
            let expected_sat =
                conflicting_ports_of(&scenario.mesh, &scenario.k8s_goals, &scenario.istio_goals)
                    .is_empty();
            Input {
                label: e.label,
                path: e.path,
                scenario,
                wire: DomainInput {
                    manifests,
                    goals: vec![k8s, istio],
                    mtls: false,
                    extra_ports,
                },
                expected_sat,
            }
        })
        .collect()
}

fn reconcile(session: &mut Session<'_>) -> Reconciliation {
    session.set_threads(1);
    let rec = session
        .reconcile(ReconcileMode::Blameable)
        .expect("unlimited budget reconciles");
    assert!(rec.exhausted.is_none(), "unlimited budget never exhausts");
    rec
}

/// Check one operation's output against the generator, independently
/// of the solver.
fn check_output(
    inp: &Input,
    rec: &Reconciliation,
    model: Option<&muppet_domain::DomainModel>,
) -> Result<(), String> {
    let sc = &inp.scenario;
    check::verdict(inp.label, inp.expected_sat, rec.success)?;
    if !rec.success {
        return check::blame(&rec.core, &sc.mesh, &sc.k8s_goals, &sc.istio_goals);
    }
    let (mv, structure) = match model {
        Some(m) => (
            &muppet_domain::mesh::payload(m).expect("mesh model").mv,
            m.structure.clone(),
        ),
        None => (&sc.mv, muppet_logic::Instance::new()),
    };
    check::dataplane(
        mv,
        &structure,
        &rec.configs,
        &sc.mesh,
        &sc.k8s_goals,
        &sc.istio_goals,
    )
    .map_err(|e| format!("{}: {e}", inp.label))
}

/// Solve one input cold. In a traced run, spans wrap the layers the
/// solve calls and the pipeline is replayed layer by layer afterwards.
fn solve(inp: &Input, p: &mut Probe<'_>) -> (Reconciliation, f64) {
    let ((rec, reconcile_ms, model), op_ms) = p.span("op", |p| match inp.path {
        Path::Wire => {
            let (model, ms) = p.span("domain.build", |_| {
                MeshDomain
                    .build(&inp.wire)
                    .expect("generated wire input builds")
            });
            p.add("domain.build_ms", ms);
            let (rec, rms) = p.span("core.reconcile", |_| reconcile(&mut model.session()));
            (rec, rms, Some(model))
        }
        Path::Bounded => {
            let (rec, rms) = p.span("core.reconcile", |_| {
                reconcile(&mut inp.scenario.session(false))
            });
            (rec, rms, None)
        }
    });
    if let Some((t, op)) = p.traced() {
        let ((), _) = t.span("replay", op, |t| {
            replay_layers(t, op, inp, &rec, reconcile_ms, model.as_ref())
        });
    }
    (rec, op_ms)
}

/// The traced run's replay of one solve through the layers' public
/// functions, and the part of `Session::reconcile` they leave out.
fn replay_layers(
    t: &mut Tracer,
    op: u64,
    inp: &Input,
    rec: &Reconciliation,
    reconcile_ms: f64,
    model: Option<&muppet_domain::DomainModel>,
) {
    if inp.path == Path::Wire {
        let (_, ms) = t.span("yaml.parse", op, |_| {
            muppet_yaml::parse_documents(&inp.wire.manifests).expect("generated YAML parses")
        });
        t.add("yaml.parse_ms", ms);
    }
    let layers = [
        "varmap.build_ms",
        "ground.ms",
        "encode.ms",
        "search.ms",
        "minimize.ms",
    ];
    let before: f64 = layers.iter().map(|l| t.sum(l)).sum();
    let session = match model {
        Some(m) => m.session(),
        None => inp.scenario.session(false),
    };
    let sat = replay(t, op, &session_problem(&session)).expect("replay succeeds");
    assert_eq!(
        sat, rec.success,
        "{}: replayed verdict differs from reconcile",
        inp.label
    );
    let covered: f64 = layers.iter().map(|l| t.sum(l)).sum::<f64>() - before;
    t.add("session.other_ms", reconcile_ms - covered);
}

/// Seconds a round of the 16 meshes took on the reference host (2 vCPU, release build):
/// a run of `--seconds` plans that many seconds of rounds.
const ROUND_S: f64 = 1.25;

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    // Set-up: round 0's input generation plus a warm-up solve of its
    // paper-scale entries, repeated so its median is steady.
    let (setups_s, round0) = repeat_setup(
        || {
            let inputs = make_inputs(seed, 0);
            for inp in inputs.iter().filter(|i| i.label.starts_with("paper")) {
                solve(inp, &mut Probe::new(None));
            }
            inputs
        },
        drop,
    );

    // Every answer is checked against the generator.
    let mut correct = true;
    let mut round0 = Some(round0);
    let rounds = run_rounds(seconds, planned_rounds(seconds, ROUND_S), |round, cal| {
        // Later rounds make their meshes here, outside the timed solves.
        let t = Instant::now();
        let inputs = round0.take().unwrap_or_else(|| make_inputs(seed, round));
        let mut samples = Vec::new();
        let mut check_s = t.elapsed().as_secs_f64();
        for inp in &inputs {
            let (rec, ms) = solve(inp, &mut Probe::new(tracer.as_deref_mut()));
            let t = Instant::now();
            let model = (inp.path == Path::Wire).then(|| {
                MeshDomain
                    .build(&inp.wire)
                    .expect("generated wire input builds")
            });
            if let Err(e) = check_output(inp, &rec, model.as_ref()) {
                eprintln!("mesh-cold check failed: {e}");
                correct = false;
            }
            samples.push(Sample {
                label: inp.label,
                ms,
            });
            check_s += t.elapsed().as_secs_f64();
            cal.between_ops();
        }
        (samples, check_s)
    });
    Outcome {
        attempted: rounds.iter().map(|r| r.samples.len() as u64).sum(),
        failed: 0,
        correct,
        rounds,
        setups_s,
        peak_rss_mb: proc_status_mb("self", "VmHWM"),
    }
}
