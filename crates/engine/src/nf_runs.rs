//! Run correspondence for normal-form programs (Proposition 2.3).
//!
//! The proposition states that `ρ = (e_i, I_i)` is a run of `P` **iff**
//! `ρⁿᶠ = (f_i, I_i)` is a run of `Pⁿᶠ` for events `f_i` with
//! `peer(e_i) = peer(f_i)` and `rule(e_i) = θ(rule(f_i))` — same instances,
//! translated events. This module makes both directions executable, which
//! is how the property tests verify the normalization:
//!
//! * [`to_normal_form`] translates a `P`-run into the corresponding
//!   `Pⁿᶠ`-run by picking, per event, the case rule of `Rules(r)` whose
//!   (extended) body holds and whose ground updates coincide;
//! * [`from_normal_form`] maps a `Pⁿᶠ`-run back through `θ` by restricting
//!   each valuation to the original rule's variables (normalization only
//!   ever *appends* fresh variables, so the prefix is the original
//!   valuation).

use std::fmt;
use std::sync::Arc;

use cwf_lang::{NormalForm, RuleId, VarId, WorkflowSpec};

use crate::eval::{match_body, Bindings};
use crate::event::Event;
use crate::run::Run;

/// Why a run could not be translated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfTranslateError {
    /// No case rule of `Rules(r)` matched event `index` — would contradict
    /// Proposition 2.3 and signals a normalization bug.
    NoCaseRule {
        /// Index of the untranslatable event.
        index: usize,
    },
    /// The translated run diverged from the original instances.
    InstanceMismatch {
        /// Index where the divergence appeared.
        index: usize,
    },
}

impl fmt::Display for NfTranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfTranslateError::NoCaseRule { index } => {
                write!(f, "event {index}: no normal-form case rule matches")
            }
            NfTranslateError::InstanceMismatch { index } => {
                write!(f, "event {index}: translated run diverged")
            }
        }
    }
}

impl std::error::Error for NfTranslateError {}

/// Translates a run of the original program into the corresponding run of
/// the normal-form program (same instances).
pub fn to_normal_form(nf: &NormalForm, run: &Run) -> Result<Run, NfTranslateError> {
    let nf_spec = Arc::new(nf.spec.clone());
    let mut out = Run::with_initial(Arc::clone(&nf_spec), run.initial().clone());
    for i in 0..run.len() {
        let e = run.event(i);
        let orig_updates = e.ground_updates(run.spec());
        let orig_vars = run.spec().program().rule(e.rule).vars.len();
        let mut pushed = false;
        // Candidate case rules: those θ maps back to e's rule.
        'rules: for (fi, _) in nf
            .theta
            .iter()
            .enumerate()
            .filter(|(_, origin)| **origin == e.rule)
        {
            let frid = RuleId(fi as u32);
            let frule = nf.spec.program().rule(frid);
            let matches = match_body(frule, out.peer_view(frule.peer));
            for mut b in matches {
                // The original variables are a prefix of the case rule's
                // table; they must agree with the original valuation.
                let mut agrees = true;
                for v in 0..orig_vars {
                    let vid = VarId(v as u32);
                    match (b.get(vid).cloned(), e.valuation.get(vid)) {
                        (Some(a), Some(c)) if &a == c => {}
                        (None, Some(c)) => b.set(vid, *c),
                        _ => {
                            agrees = false;
                            break;
                        }
                    }
                }
                if !agrees {
                    continue;
                }
                if !b.is_total() {
                    continue;
                }
                let cand = Event {
                    rule: frid,
                    peer: frule.peer,
                    valuation: b,
                };
                if cand.ground_updates(&nf.spec) != orig_updates {
                    continue;
                }
                let mut trial = out.clone();
                if trial.push(cand).is_ok() {
                    // Both runs start from I_{i−1}, so equal diffs mean
                    // equal instances I_i.
                    if trial.diff(i) != run.diff(i) {
                        return Err(NfTranslateError::InstanceMismatch { index: i });
                    }
                    out = trial;
                    pushed = true;
                    break 'rules;
                }
            }
        }
        if !pushed {
            return Err(NfTranslateError::NoCaseRule { index: i });
        }
    }
    Ok(out)
}

/// Translates a run of the normal-form program back through `θ`.
pub fn from_normal_form(
    nf: &NormalForm,
    original: &Arc<WorkflowSpec>,
    nf_run: &Run,
) -> Result<Run, NfTranslateError> {
    let mut out = Run::with_initial(Arc::clone(original), nf_run.initial().clone());
    for i in 0..nf_run.len() {
        let f = nf_run.event(i);
        let origin = nf.origin(f.rule);
        let orig_rule = original.program().rule(origin);
        let mut b = Bindings::empty(orig_rule.vars.len());
        for v in 0..orig_rule.vars.len() {
            let vid = VarId(v as u32);
            let val = f
                .valuation
                .get(vid)
                .expect("normalization appends variables, so the prefix is total");
            b.set(vid, *val);
        }
        let e = Event {
            rule: origin,
            peer: orig_rule.peer,
            valuation: b,
        };
        out.push(e)
            .map_err(|_| NfTranslateError::NoCaseRule { index: i })?;
        if out.diff(i) != nf_run.diff(i) {
            return Err(NfTranslateError::InstanceMismatch { index: i });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::Simulator;
    use cwf_lang::{is_normal_form, normalize, parse_workflow};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec_with_negation() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A); S(K); }
                peers { p sees R(*), S(*); q sees R(*), S(*); }
                rules {
                    mk @ p: +R(x, "a") :- ;
                    flip @ q: +S(x) :- R(x, y), not R(x, "b"), not key S(x);
                    del @ q: -key R(x) :- R(x, y), S(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn round_trip_on_random_runs() {
        let spec = spec_with_negation();
        let nf = normalize(&spec);
        assert!(is_normal_form(nf.spec.program()));
        for seed in 0..10u64 {
            let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
            sim.steps(10).unwrap();
            let run = sim.into_run();
            // P-run → Pⁿᶠ-run: same instances (Proposition 2.3, ⇒).
            let nf_run = to_normal_form(&nf, &run).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(nf_run.len(), run.len());
            for i in 0..run.len() {
                assert_eq!(nf_run.instance(i), run.instance(i), "seed {seed} step {i}");
                // peer(e_i) = peer(f_i) and θ(rule(f_i)) = rule(e_i).
                assert_eq!(nf_run.event(i).peer, run.event(i).peer);
                assert_eq!(nf.origin(nf_run.event(i).rule), run.event(i).rule);
            }
            // Pⁿᶠ-run → P-run (⇐).
            let back = from_normal_form(&nf, &spec, &nf_run)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.events(), run.events());
        }
    }

    #[test]
    fn nf_simulated_runs_translate_back() {
        let spec = spec_with_negation();
        let nf = normalize(&spec);
        let nf_spec = Arc::new(nf.spec.clone());
        for seed in 20..26u64 {
            let mut sim =
                Simulator::new(Run::new(Arc::clone(&nf_spec)), StdRng::seed_from_u64(seed));
            sim.steps(8).unwrap();
            let nf_run = sim.into_run();
            let back = from_normal_form(&nf, &spec, &nf_run)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.len(), nf_run.len());
        }
    }
}
