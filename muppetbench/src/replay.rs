//! Layer replay for the traced run: the bounded-FOL → CNF → CDCL
//! pipeline driven step by step through each layer's public function
//! (`VarMap::build`, `ground`, `tseitin::encode`, the SAT solver and
//! ordered MUS deletion) on the same inputs the timed operation used,
//! each call wrapped in a span.

use muppet::Session;
use muppet_logic::{Formula, Instance, PartialInstance, RelId, Universe, Vocabulary};
use muppet_sat::mus::shrink_core_ordered;
use muppet_sat::{Lit, Model, SolveResult, Solver};
use muppet_solver::{ground, tseitin, GExpr, VarMap};

use crate::trace::Tracer;

/// The inputs one solve hands the pipeline.
pub struct Problem<'a> {
    pub vocab: &'a Vocabulary,
    pub universe: &'a Universe,
    pub free: Vec<RelId>,
    pub bounds: PartialInstance,
    pub fixed: &'a Instance,
    /// Formula groups, each guarded by its own selector.
    pub groups: Vec<Vec<&'a Formula>>,
}

/// The problem `Session::reconcile` solves: every party relation free,
/// the union of the offers as bounds, the axioms as one group and one
/// group per goal.
pub fn session_problem<'a>(session: &'a Session<'_>) -> Problem<'a> {
    let mut free = Vec::new();
    let mut bounds = PartialInstance::new();
    let mut groups: Vec<Vec<&Formula>> = vec![session.axioms().iter().collect()];
    for p in session.parties() {
        free.extend(session.owned_rels(p.id));
        for rel in p.offer.bounded_rels() {
            bounds.bound(rel);
            for t in p.offer.upper(rel) {
                bounds.permit(rel, t.clone());
            }
            for t in p.offer.lower(rel) {
                bounds.require(rel, t.clone());
            }
        }
        groups.extend(p.goals.iter().map(|g| vec![&g.formula]));
    }
    Problem {
        vocab: session.vocab(),
        universe: session.universe(),
        free,
        bounds,
        fixed: session.structure(),
        groups,
    }
}

/// Clauses the one-sided Tseitin encoding emits for `e`: one per `And`
/// child, one per `Or`, one unit per constant. The SAT crate exposes no
/// clause count, so the replay counts over the ground expression.
fn clause_count(e: &GExpr) -> usize {
    match e {
        GExpr::Const(_) => 1,
        GExpr::Lit(_) => 0,
        GExpr::And(ps) => ps.len() + ps.iter().map(clause_count).sum::<usize>(),
        GExpr::Or(ps) => 1 + ps.iter().map(clause_count).sum::<usize>(),
    }
}

/// The benchmark's own evaluator of a ground expression under a model.
fn holds(e: &GExpr, m: &Model) -> bool {
    match e {
        GExpr::Const(b) => *b,
        GExpr::Lit(l) => m.lit_value(*l),
        GExpr::And(ps) => ps.iter().all(|p| holds(p, m)),
        GExpr::Or(ps) => ps.iter().any(|p| holds(p, m)),
    }
}

/// Replay one solve layer by layer under operation id `op`. Returns the
/// verdict, or an error if a SAT model falsifies a ground group.
pub fn replay(t: &mut Tracer, op: u64, p: &Problem<'_>) -> Result<bool, String> {
    let mut solver = Solver::new();
    let (vm, ms) = t.span("solver.varmap", op, |_| {
        VarMap::build(p.vocab, p.universe, &p.free, &p.bounds, &mut solver)
    });
    t.add("varmap.build_ms", ms);
    t.add("varmap.free_vars", vm.num_free_vars() as f64);

    let (exprs, ms) = t.span("solver.ground", op, |_| {
        p.groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|f| ground(f, &vm, p.fixed, p.universe).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<GExpr>, String>>()
                    .map(GExpr::And)
            })
            .collect::<Result<Vec<GExpr>, String>>()
    });
    let exprs = exprs?;
    t.add("ground.ms", ms);
    t.add(
        "ground.nodes",
        exprs.iter().map(GExpr::size).sum::<usize>() as f64,
    );

    let (selectors, ms) = t.span("solver.tseitin", op, |_| {
        exprs
            .iter()
            .map(|e| {
                let l = tseitin::encode(e, &mut solver);
                let s = Lit::pos(solver.new_var());
                solver.add_clause([!s, l]);
                s
            })
            .collect::<Vec<Lit>>()
    });
    t.add("encode.ms", ms);
    t.add("cnf.vars", solver.num_vars() as f64);
    t.add(
        "cnf.clauses",
        (exprs.iter().map(clause_count).sum::<usize>() + selectors.len()) as f64,
    );

    let (res, ms) = t.span("sat.search", op, |_| {
        solver.solve_with_assumptions(&selectors)
    });
    t.add("search.ms", ms);
    let sat = match res {
        SolveResult::Sat(model) => {
            if let Some(i) = exprs.iter().position(|e| !holds(e, &model)) {
                return Err(format!("replayed SAT model falsifies ground group {i}"));
            }
            true
        }
        SolveResult::Unsat(_) => false,
        SolveResult::Unknown => return Err("replayed search gave up without a budget".into()),
    };
    let st = solver.stats;
    t.add("sat.conflicts", st.conflicts as f64);
    t.add("sat.decisions", st.decisions as f64);
    t.add("sat.propagations", st.propagations as f64);
    if !sat {
        let (_, ms) = t.span("solver.minimize", op, |_| {
            shrink_core_ordered(&mut solver, &selectors)
        });
        t.add("minimize.ms", ms);
    }
    Ok(sat)
}
