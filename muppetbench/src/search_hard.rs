//! `search-hard`: the committed hard-tier CNF corpus, the relational
//! pigeonhole through the bounded-FOL pipeline, and a core-guided
//! minimal-edit target query. Every input has its verdict (or optimum)
//! by construction and is fixed; the seed only sets the order of the
//! operations within a round.

use muppet_logic::{evaluate_closed, Formula, RelId, Universe, Vocabulary};
use muppet_sat::{SolveResult, SolverStats};
use muppet_scenario::corpus::{self, Kind};
use muppet_scenario::hard::CnfInstance;
use muppet_scenario::minedit::{minedit, MinEditScenario};
use muppet_scenario::paper::php_relational;
use muppet_solver::{Budget, FormulaGroup, Outcome as QueryOutcome, Query, TargetStrategy};

use crate::check;
use crate::measure::{planned_rounds, proc_status_mb, repeat_setup, run_rounds, Outcome, Sample};
use crate::replay::{replay, Problem};
use crate::trace::{Probe, Tracer};

enum Input {
    Cnf {
        label: &'static str,
        inst: CnfInstance,
    },
    Php {
        universe: Universe,
        vocab: Vocabulary,
        sits: RelId,
        formulas: Vec<Formula>,
    },
    MinEdit(MinEditScenario),
}

impl Input {
    fn label(&self) -> &'static str {
        match self {
            Input::Cnf { label, .. } => label,
            Input::Php { .. } => "php-9-8",
            Input::MinEdit(_) => "minedit-400-50x8",
        }
    }
}

fn make_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = ["hard-php-8-7", "hard-pup-sat-40", "hard-pup-unsat-5"]
        .into_iter()
        .map(|name| {
            let entry = corpus::entry(name).expect("committed hard-tier entry");
            let inst = corpus::cnf_instance(entry.kind).expect("hard tier is CNF");
            Input::Cnf {
                label: entry.name,
                inst,
            }
        })
        .collect();
    let Some(Kind::PhpRelational { pigeons, holes }) = corpus::entry("php-9-8").map(|e| e.kind)
    else {
        panic!("php-9-8 is a committed relational pigeonhole entry");
    };
    // The slowest input runs twice a round, so that a run's ten slowest
    // operations lie inside its class rather than on its edge with the
    // next slowest (`hard-pup-unsat-5`).
    for _ in 0..2 {
        let (universe, vocab, sits, formulas) = php_relational(pigeons, holes);
        inputs.push(Input::Php {
            universe,
            vocab,
            sits,
            formulas,
        });
    }
    inputs.push(Input::MinEdit(minedit(400, 50, 8)));
    // Seeded rotation of the round order.
    let k = (seed % inputs.len() as u64) as usize;
    inputs.rotate_left(k);
    inputs
}

fn add_sat_counters(p: &mut Probe<'_>, conflicts: u64, decisions: u64, propagations: u64) {
    p.add("sat.conflicts", conflicts as f64);
    p.add("sat.decisions", decisions as f64);
    p.add("sat.propagations", propagations as f64);
}

/// Solve one input and check its answer against its construction.
/// Returns the latency of the timed operation and the check's verdict.
fn solve(inp: &Input, p: &mut Probe<'_>) -> (f64, Result<(), String>) {
    match inp {
        Input::Cnf { label, inst } => {
            let ((res, stats), ms) = p.span("op", |p| {
                let (mut s, _) = p.span("sat.load", |_| inst.solver());
                let (res, search_ms) = p.span("sat.search", |_| s.solve());
                p.add("search.ms", search_ms);
                (res, s.stats)
            });
            let SolverStats {
                conflicts,
                decisions,
                propagations,
                ..
            } = stats;
            add_sat_counters(p, conflicts, decisions, propagations);
            (ms, check_cnf(label, inst, &res))
        }
        Input::Php {
            universe,
            vocab,
            sits,
            formulas,
        } => {
            let (out, ms) = p.span("op", |_| {
                let mut q = Query::new(vocab, universe);
                q.free_rel(*sits)
                    .add_group(FormulaGroup::new("php", formulas.clone()));
                q.solve().expect("unlimited budget")
            });
            if let Some((t, op)) = p.traced() {
                let fixed = muppet_logic::Instance::new();
                let problem = Problem {
                    vocab,
                    universe,
                    free: vec![*sits],
                    bounds: muppet_logic::PartialInstance::new(),
                    fixed: &fixed,
                    groups: vec![formulas.iter().collect()],
                };
                let ((), _) = t.span("replay", op, |t| {
                    let sat = replay(t, op, &problem).expect("replay succeeds");
                    assert!(!sat, "replayed PHP(9,8) must be unsat");
                });
            }
            (ms, check::verdict("php-9-8", false, out.is_sat()))
        }
        Input::MinEdit(sc) => {
            let ((out, d), ms) = p.span("op", |p| {
                let ((mut q, active), _) = p.span("solver.target_setup", |_| sc.engine());
                q.set_target_strategy(TargetStrategy::CoreGuided);
                let (got, target_ms) = p.span("solver.target", |_| {
                    q.solve_target(&active, &sc.target, Budget::unlimited())
                });
                let st = got.0.stats();
                p.add("target.ms", target_ms);
                p.add("target.oll_cores", st.oll_cores as f64);
                add_sat_counters(p, st.conflicts, st.decisions, st.propagations);
                got
            });
            (ms, check_minedit(sc, &out, d))
        }
    }
}

fn check_cnf(label: &str, inst: &CnfInstance, res: &SolveResult) -> Result<(), String> {
    let expected_sat = inst.expected.matches_success(true);
    check::verdict(label, expected_sat, res.is_sat())?;
    if let SolveResult::Sat(model) = res {
        check::clauses_hold(&inst.clauses, |v| {
            model.value(muppet_sat::Var::from_index(v))
        })
        .map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}

/// The optimum equals the constructed `k`, the model is exactly that
/// far from the (empty) target, and every goal holds in it under the
/// logic crate's evaluator.
fn check_minedit(sc: &MinEditScenario, out: &QueryOutcome, d: usize) -> Result<(), String> {
    let sol = out.solution().ok_or("minedit: no model")?;
    if d != sc.optimum || sol.distance(&sc.target) != sc.optimum {
        return Err(format!(
            "minedit: optimum {d}, model distance {}, constructed {}",
            sol.distance(&sc.target),
            sc.optimum
        ));
    }
    for g in &sc.groups {
        for f in &g.formulas {
            if !evaluate_closed(f, sol, &sc.universe).map_err(|e| format!("minedit: {e:?}"))? {
                return Err(format!("minedit: model falsifies {}", g.name));
            }
        }
    }
    Ok(())
}

/// Seconds a round of the six inputs took on the reference host (2 vCPU, release build):
/// a run of `--seconds` plans that many seconds of rounds.
const ROUND_S: f64 = 4.0;

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    // Set-up: build the corpus instances and warm up on the cheapest
    // one, repeated so its median is steady.
    let (setups_s, inputs) = repeat_setup(
        || {
            let inputs = make_inputs(seed);
            let cheapest = inputs
                .iter()
                .find(|i| i.label() == "hard-php-8-7")
                .expect("in corpus");
            solve(cheapest, &mut Probe::new(None))
                .1
                .expect("warm-up solve");
            inputs
        },
        drop,
    );
    let mut correct = true;
    let rounds = run_rounds(seconds, planned_rounds(seconds, ROUND_S), |_, cal| {
        let mut samples = Vec::new();
        for inp in &inputs {
            let got = solve(inp, &mut Probe::new(tracer.as_deref_mut()));
            if let (_, Err(e)) = &got {
                eprintln!("search-hard: {e}");
                correct = false;
            }
            samples.push(Sample {
                label: inp.label(),
                ms: got.0,
            });
            cal.between_ops();
        }
        (samples, 0.0)
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
