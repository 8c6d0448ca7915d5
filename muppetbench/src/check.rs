//! Output checks that share no code with the solve pipeline: verdicts
//! against the generator's constructed labels, SAT configurations
//! through the `crates/mesh` dataplane simulator, and blame cores
//! against the constructed conflicts.

use std::collections::BTreeMap;

use muppet_goals::{IstioGoal, K8sGoal, PortSpec};
use muppet_logic::{Instance, PartyId};
use muppet_mesh::{evaluate_flow, Action, Flow, Mesh, MeshVocab};
use muppet_sat::Lit;

/// Sources tried per destination when checking a DENY row on a large
/// mesh (every source is tried up to this many services).
const DENY_SOURCES: usize = 64;

/// Every goal row holds in the dataplane simulator under the solved
/// configuration: each reachability row is delivered on its port (on
/// some port for an ∃/any-port row), each DENY row blocks its
/// port toward every destination it selects.
pub fn dataplane(
    mv: &MeshVocab,
    structure: &Instance,
    configs: &BTreeMap<PartyId, Instance>,
    mesh: &Mesh,
    k8s_rows: &[K8sGoal],
    istio_rows: &[IstioGoal],
) -> Result<(), String> {
    let empty = Instance::new();
    let mut combined = structure.clone();
    for c in configs.values() {
        combined = combined.union(c);
    }
    let deployed = mv.decompile_services(&combined);
    let k8s = mv.decompile_k8s(configs.get(&mv.k8s_party).unwrap_or(&empty));
    let istio = mv.decompile_istio(configs.get(&mv.istio_party).unwrap_or(&empty));
    let delivered = |src: &str, dst: &str, port: u16| {
        evaluate_flow(&deployed, &k8s, &istio, &Flow::new(src, dst, 0, port)).allowed
    };
    for (i, g) in istio_rows.iter().enumerate() {
        let ok = match &g.dst_port {
            PortSpec::Port(p) => delivered(&g.src, &g.dst, *p),
            // A flow needs its destination to listen, so the deployed
            // listening set bounds the ports worth trying.
            PortSpec::Var(_) | PortSpec::Any => deployed
                .service(&g.dst)
                .is_some_and(|d| d.ports.iter().any(|&p| delivered(&g.src, &g.dst, p))),
        };
        if !ok {
            return Err(format!(
                "istio goal {}: {} -> {} not delivered",
                i + 1,
                g.src,
                g.dst
            ));
        }
    }
    let names: Vec<&str> = mesh.services().iter().map(|s| s.name.as_str()).collect();
    let stride = names.len().div_ceil(DENY_SOURCES).max(1);
    for (i, g) in k8s_rows.iter().enumerate() {
        if g.perm != Action::Deny {
            continue;
        }
        for dst in mesh.select(&g.selector) {
            for src in names.iter().step_by(stride) {
                if delivered(src, &dst.name, g.port) {
                    return Err(format!(
                        "k8s goal {}: {src} -> {} on banned port {} delivered",
                        i + 1,
                        dst.name,
                        g.port
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The 1-based goal row a blame entry names, e.g.
/// `"k8s-admin: k8s goal 2: DENY port 7003"` → `Some(2)` for `"k8s goal "`.
fn blamed_row(entry: &str, kind: &str) -> Option<usize> {
    let rest = &entry[entry.find(kind)? + kind.len()..];
    rest[..rest.find(':')?].parse().ok()
}

/// The blame core names a constructed conflicting ban and a
/// reachability row that needs the banned port on a destination the
/// ban selects.
pub fn blame(
    core: &[String],
    mesh: &Mesh,
    k8s_rows: &[K8sGoal],
    istio_rows: &[IstioGoal],
) -> Result<(), String> {
    let bans: Vec<&K8sGoal> = core
        .iter()
        .filter_map(|c| blamed_row(c, "k8s goal "))
        .filter_map(|i| k8s_rows.get(i.wrapping_sub(1)))
        .collect();
    let rows: Vec<&IstioGoal> = core
        .iter()
        .filter_map(|c| blamed_row(c, "istio goal "))
        .filter_map(|i| istio_rows.get(i.wrapping_sub(1)))
        .collect();
    let explained = bans.iter().any(|b| {
        rows.iter().any(|g| {
            g.dst_port == PortSpec::Port(b.port)
                && mesh.service(&g.dst).is_some_and(|d| b.selector.matches(d))
        })
    });
    if explained {
        Ok(())
    } else {
        Err(format!(
            "blame core {core:?} names no conflicting ban and goal row"
        ))
    }
}

/// A model satisfies every clause (the benchmark's own evaluator over a
/// `var → bool` assignment).
pub fn clauses_hold(clauses: &[Vec<Lit>], value: impl Fn(usize) -> bool) -> Result<(), String> {
    match clauses
        .iter()
        .position(|c| !c.iter().any(|l| value(l.var().index()) == l.is_positive()))
    {
        None => Ok(()),
        Some(i) => Err(format!("model falsifies clause {i}")),
    }
}

/// A constructed sat/unsat label compared with an observed verdict.
pub fn verdict(label: &str, expected_sat: bool, got_sat: bool) -> Result<(), String> {
    if expected_sat == got_sat {
        Ok(())
    } else {
        Err(format!(
            "{label}: expected {}, got {}",
            if expected_sat { "sat" } else { "unsat" },
            if got_sat { "sat" } else { "unsat" }
        ))
    }
}
