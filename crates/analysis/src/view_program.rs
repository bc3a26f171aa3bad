//! Validating synthesized view programs, and provenance (Theorem 5.13).
//!
//! * **Completeness**: for every run `ρ` of `P`, the view `ρ@p` must be a
//!   run of `P@p` (with other peers' transitions as ω-events).
//!   [`mirror_run`] replays `ρ@p` against the view program step by step,
//!   matching each ω-step to an ω-rule instantiation — whose positive body
//!   facts are exactly the **provenance** of the observed update.
//! * **Soundness**: every run of `P@p` must be the view of some run of `P`.
//!   [`expand_view_run`] rebuilds such a run constructively, expanding each
//!   fired ω-rule into the canonical chain it was synthesized from
//!   (transparency is what makes the chain transplantable to the actual
//!   instance — exactly the argument in the paper's proof).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use cwf_engine::{apply_event, match_body, Bindings, Event, EventView, Run};
use cwf_lang::{RuleId, Term, UpdateAtom, VarId};
use cwf_model::{Instance, RelId, Tuple, Value};

use crate::synthesis::{view_as_instance, Synthesis};

/// A matched ω-step: which rule fired, with which bindings, and the visible
/// facts that caused it (provenance).
#[derive(Debug, Clone)]
pub struct MatchedStep {
    /// The ω-rule of the view program.
    pub rule: RuleId,
    /// The matched valuation.
    pub bindings: Bindings,
    /// The positive body facts — the provenance of the observed update,
    /// over the view-program schema.
    pub provenance: Vec<(RelId, Tuple)>,
}

/// Why mirroring a run through the view program failed (a completeness
/// violation — or a bug in synthesis).
#[derive(Debug, Clone)]
pub struct MirrorError {
    /// Index of the failing step within `ρ@p`.
    pub step: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for MirrorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view step {}: {}", self.step, self.message)
    }
}

impl std::error::Error for MirrorError {}

/// One mirrored step of `ρ@p`.
#[derive(Debug, Clone)]
pub enum MirroredStep {
    /// The peer's own event (carried over verbatim).
    Own,
    /// An ω-event with its provenance.
    Omega(MatchedStep),
}

/// Replays `run@peer` through the view program: every own-event maps through
/// the rule map, every ω-step must be producible by some ω-rule. Returns the
/// mirrored steps (completeness witness + provenance per observation).
pub fn mirror_run(synth: &Synthesis, run: &Run) -> Result<Vec<MirroredStep>, MirrorError> {
    let peer = synth.view_spec.collab().peer_name(synth.p_peer).to_string();
    let orig_peer = run
        .spec()
        .collab()
        .peer(&peer)
        .expect("synthesis peer exists in the original spec");
    let target = run.view(orig_peer);
    let mut current = Instance::empty(synth.view_spec.collab().schema());
    let mut out = Vec::new();
    for (si, step) in target.steps.iter().enumerate() {
        let expected = view_as_instance(synth, &step.view);
        match &step.event {
            EventView::Own(e) => {
                let new_rid = synth.rule_map.get(&e.rule).ok_or_else(|| MirrorError {
                    step: si,
                    message: "own event's rule has no counterpart".into(),
                })?;
                let ev = Event {
                    rule: *new_rid,
                    peer: synth.p_peer,
                    valuation: e.valuation.clone(),
                };
                let next =
                    apply_event(&synth.view_spec, &current, &ev).map_err(|e| MirrorError {
                        step: si,
                        message: format!("own event not applicable in the view program: {e}"),
                    })?;
                if next != expected {
                    return Err(MirrorError {
                        step: si,
                        message: "own event produced a different view state".into(),
                    });
                }
                current = next;
                out.push(MirroredStep::Own);
            }
            EventView::World => {
                let m =
                    match_omega_step(synth, &current, &expected).ok_or_else(|| MirrorError {
                        step: si,
                        message: "no ω-rule reproduces this observation".into(),
                    })?;
                current = expected;
                out.push(MirroredStep::Omega(m));
            }
        }
    }
    Ok(out)
}

/// Finds an ω-rule instantiation transforming `current` into `expected`.
pub fn match_omega_step(
    synth: &Synthesis,
    current: &Instance,
    expected: &Instance,
) -> Option<MatchedStep> {
    let spec = &synth.view_spec;
    let schema = spec.collab().schema();
    // The delta the rule must produce.
    let mut inserts: Vec<(RelId, Tuple)> = Vec::new();
    let mut deletes: Vec<(RelId, Value)> = Vec::new();
    for r in schema.rel_ids() {
        for t in expected.rel(r).iter() {
            if current.rel(r).get(t.key()) != Some(t) {
                inserts.push((r, t.clone()));
            }
        }
        for k in current.rel(r).keys() {
            if !expected.rel(r).contains_key(k) {
                deletes.push((r, *k));
            }
        }
    }
    let omega_view = spec.collab().view_of(current, synth.omega_peer);
    for &rid in &synth.omega_rules {
        let rule = spec.program().rule(rid);
        'val: for base in match_body(rule, &omega_view) {
            // Bind head-only variables by unifying insert atoms against the
            // needed insert tuples (backtracking over the assignment).
            let atoms: Vec<&UpdateAtom> = rule.head.iter().collect();
            let mut bindings = base.clone();
            if !assign_heads(&atoms, &inserts, &deletes, &mut bindings) {
                continue 'val;
            }
            if !bindings.is_total() {
                continue 'val;
            }
            let ev = Event {
                rule: rid,
                peer: synth.omega_peer,
                valuation: bindings.clone(),
            };
            let Ok(next) = apply_event(spec, current, &ev) else {
                continue 'val;
            };
            if &next == expected {
                let provenance = rule
                    .body
                    .iter()
                    .filter_map(|l| match l {
                        cwf_lang::Literal::Pos { rel, args } => Some((
                            *rel,
                            Tuple::new(
                                args.iter()
                                    .map(|t| bindings.resolve(t).expect("body vars bound")),
                            ),
                        )),
                        _ => None,
                    })
                    .collect();
                return Some(MatchedStep {
                    rule: rid,
                    bindings,
                    provenance,
                });
            }
        }
    }
    None
}

/// Backtracking assignment of head atoms to delta entries, extending
/// `bindings` for head-only variables. Every atom must be matched and every
/// delta entry must be covered by some atom.
fn assign_heads(
    atoms: &[&UpdateAtom],
    inserts: &[(RelId, Tuple)],
    deletes: &[(RelId, Value)],
    bindings: &mut Bindings,
) -> bool {
    // Quick cardinality check: an atom produces at most one delta entry.
    let n_ins = atoms.iter().filter(|a| a.is_insert()).count();
    let n_del = atoms.len() - n_ins;
    if n_ins != inserts.len() || n_del != deletes.len() {
        return false;
    }
    fn go(
        atoms: &[&UpdateAtom],
        idx: usize,
        inserts: &[(RelId, Tuple)],
        used_ins: &mut Vec<bool>,
        deletes: &[(RelId, Value)],
        used_del: &mut Vec<bool>,
        bindings: &mut Bindings,
    ) -> bool {
        if idx == atoms.len() {
            return true;
        }
        match atoms[idx] {
            UpdateAtom::Insert { rel, args } => {
                for (i, (r, t)) in inserts.iter().enumerate() {
                    if used_ins[i] || r != rel {
                        continue;
                    }
                    let saved = bindings.clone();
                    if unify_terms(args, t.values(), bindings) {
                        used_ins[i] = true;
                        if go(
                            atoms,
                            idx + 1,
                            inserts,
                            used_ins,
                            deletes,
                            used_del,
                            bindings,
                        ) {
                            return true;
                        }
                        used_ins[i] = false;
                    }
                    *bindings = saved;
                }
                false
            }
            UpdateAtom::Delete { rel, key } => {
                for (i, (r, k)) in deletes.iter().enumerate() {
                    if used_del[i] || r != rel {
                        continue;
                    }
                    let saved = bindings.clone();
                    if unify_terms(std::slice::from_ref(key), std::slice::from_ref(k), bindings) {
                        used_del[i] = true;
                        if go(
                            atoms,
                            idx + 1,
                            inserts,
                            used_ins,
                            deletes,
                            used_del,
                            bindings,
                        ) {
                            return true;
                        }
                        used_del[i] = false;
                    }
                    *bindings = saved;
                }
                false
            }
        }
    }
    let mut used_ins = vec![false; inserts.len()];
    let mut used_del = vec![false; deletes.len()];
    go(
        atoms,
        0,
        inserts,
        &mut used_ins,
        deletes,
        &mut used_del,
        bindings,
    )
}

fn unify_terms(args: &[Term], values: &[Value], bindings: &mut Bindings) -> bool {
    if args.len() != values.len() {
        return false;
    }
    for (t, v) in args.iter().zip(values) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(x) => match bindings.get(*x) {
                Some(b) => {
                    if b != v {
                        return false;
                    }
                }
                None => bindings.set(*x, *v),
            },
        }
    }
    true
}

/// Why expanding a view-program run back into an original-program run failed
/// (a soundness violation — or a transparency violation of the original).
#[derive(Debug, Clone)]
pub struct ExpandError {
    /// Index of the failing event of the view run.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view event {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ExpandError {}

/// Rebuilds a run of the *original* program whose `peer`-view matches the
/// given run of the view program: own events carry back through the rule
/// map, and each ω-event expands into (a renaming of) the canonical chain
/// its rule was synthesized from.
pub fn expand_view_run(
    synth: &Synthesis,
    original: &Arc<cwf_lang::WorkflowSpec>,
    view_run: &Run,
) -> Result<Run, ExpandError> {
    let peer_name = synth.view_spec.collab().peer_name(synth.p_peer);
    let peer = original
        .collab()
        .peer(peer_name)
        .expect("peer exists in the original spec");
    let inverse_rules: BTreeMap<RuleId, RuleId> =
        synth.rule_map.iter().map(|(o, n)| (*n, *o)).collect();
    let mut run = Run::new(Arc::clone(original));
    // Internal chain events draw fresh values; steer the generator past
    // everything the view run will ever use, so those draws cannot collide
    // with values later supplied by the view run's own events.
    for v in view_run.used_values() {
        run.avoid_fresh(v);
    }
    for i in 0..view_run.len() {
        for v in view_run.event(i).adom(synth.view_spec.as_ref()) {
            run.avoid_fresh(&v);
        }
    }
    let mut history = view_run.cursor();
    for i in 0..view_run.len() {
        let ev = view_run.event(i);
        if ev.peer == synth.p_peer {
            let orig_rid = inverse_rules.get(&ev.rule).ok_or_else(|| ExpandError {
                at: i,
                message: "own event's rule has no original counterpart".into(),
            })?;
            let e = Event {
                rule: *orig_rid,
                peer,
                valuation: ev.valuation.clone(),
            };
            run.push(e).map_err(|e| ExpandError {
                at: i,
                message: format!("own event not applicable in the original: {e}"),
            })?;
        } else {
            let meta = synth.omega_meta.get(&ev.rule).ok_or_else(|| ExpandError {
                at: i,
                message: "ω-rule without synthesis certificate".into(),
            })?;
            // Canonical value → concrete value: rule variables take the
            // event's bindings; unmapped canonical values get fresh draws.
            let mut value_map: BTreeMap<Value, Value> = BTreeMap::new();
            for (canon, var) in &meta.canon {
                let v = *ev.valuation.get(*var).expect("total");
                value_map.insert(*canon, v);
            }
            let mut fresh_cache: BTreeMap<Value, Value> = BTreeMap::new();
            for ce in &meta.chain {
                let rule = original.program().rule(ce.rule);
                let mut b = Bindings::empty(rule.vars.len());
                for v in 0..rule.vars.len() {
                    let vid = VarId(v as u32);
                    let canon = *ce.valuation.get(vid).expect("total");
                    let concrete = if let Some(c) = value_map.get(&canon) {
                        *c
                    } else if original.program().const_set().contains(&canon) {
                        canon
                    } else {
                        *fresh_cache.entry(canon).or_insert_with(|| run.draw_fresh())
                    };
                    b.set(vid, concrete);
                }
                let e = Event {
                    rule: ce.rule,
                    peer: ce.peer,
                    valuation: b,
                };
                run.push(e).map_err(|err| ExpandError {
                    at: i,
                    message: format!(
                        "canonical chain not applicable on the actual instance \
                         (transparency violation?): {err}"
                    ),
                })?;
            }
        }
        // Verify observational agreement after each view event.
        let got = view_as_instance(synth, &original.collab().view_of(run.current(), peer));
        if &got != history.seek(i).expect("in range").post {
            return Err(ExpandError {
                at: i,
                message: "expanded run's view diverged from the view run".into(),
            });
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Limits;
    use crate::synthesis::synthesize_view_program;
    use cwf_engine::Simulator;
    use cwf_lang::parse_workflow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn limits() -> Limits {
        Limits {
            max_nodes: 2_000_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(2),
        }
    }

    fn transparent_hiring() -> Arc<cwf_lang::WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Approved(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Approved(*), Hire(*);
                    ceo sees Cleared(*), Approved(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    approve @ ceo: +Approved(x) :- Cleared(x), not key Approved(x);
                    hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn completeness_on_random_runs_with_provenance() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        for seed in 0..10u64 {
            let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
            let _ = sim.steps(8).unwrap();
            let run = sim.into_run();
            let mirrored = mirror_run(&synth, &run)
                .unwrap_or_else(|e| panic!("completeness failed on seed {seed}: {e}"));
            // Every Hire observation carries Cleared provenance.
            let hire = synth.view_spec.collab().schema().rel("Hire").unwrap();
            let cleared = synth.view_spec.collab().schema().rel("Cleared").unwrap();
            for m in &mirrored {
                if let MirroredStep::Omega(ms) = m {
                    let rule = synth.view_spec.program().rule(ms.rule);
                    let inserts_hire = rule
                        .head
                        .iter()
                        .any(|u| matches!(u, UpdateAtom::Insert { rel, .. } if *rel == hire));
                    if inserts_hire {
                        assert!(
                            ms.provenance.iter().any(|(r, _)| *r == cleared),
                            "hire should be explained by a Cleared fact"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soundness_via_chain_expansion() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        // Simulate runs of the *view program* and expand each back.
        for seed in 0..10u64 {
            let mut sim = Simulator::new(
                Run::new(Arc::clone(&synth.view_spec)),
                StdRng::seed_from_u64(seed),
            );
            let _ = sim.steps(6).unwrap();
            let vrun = sim.into_run();
            let expanded = expand_view_run(&synth, &spec, &vrun)
                .unwrap_or_else(|e| panic!("soundness failed on seed {seed}: {e}"));
            assert!(expanded.len() >= vrun.len(), "chains only add events");
        }
    }

    #[test]
    fn mirror_detects_missing_rules() {
        // Synthesize for the hiring program but mirror a run of a *different*
        // program whose observation cannot be produced: drop the ω-rules.
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        // Cripple the synthesis by forgetting the ω-rules.
        synth.omega_rules.clear();
        let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(1));
        let _ = sim.steps(8).unwrap();
        let run = sim.into_run();
        let p = spec.collab().peer("sue").unwrap();
        if run.view(p).is_empty() {
            return; // nothing observed, vacuous
        }
        let err = mirror_run(&synth, &run).unwrap_err();
        assert!(err.message.contains("no ω-rule"));
    }
}
