//! History-free replay state for search loops.
//!
//! The branch-and-bound searches of `cwf-core` replay event subsequences
//! millions of times. A full [`Run`] is the wrong vehicle for that: it keeps
//! every event and diff, so cloning one at each search node is O(history),
//! and the old search recomputed `view_of` per step on top.
//!
//! [`ScratchRun`] keeps exactly the state needed to decide whether the next
//! event applies and what each peer observes of it: the current instance,
//! the incrementally maintained view plane, and the freshness avoid-set.
//! Cloning is O(current state); a push is one in-place transition plus
//! delta propagation, with no copy of the instance.
//! [`ScratchRun::try_push`] accepts and rejects exactly the events
//! [`Run::push`] would — the same freshness check and the same transition,
//! in the same order — so searches driven by either are decision-identical.
//!
//! Search arenas reuse scratch states across sibling branches via
//! `Clone::clone_from`, which the columnar stores turn into buffer reuse
//! instead of fresh allocations (see [`crate::run`] for the full-run type).

use std::collections::BTreeSet;
use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::{Instance, PeerId, Value, ViewInstance};

use crate::error::EngineError;
use crate::event::Event;
use crate::run::{check_fresh, Run};
use crate::transition::apply_event_in_place;
use crate::view_plane::{ViewDelta, ViewPlane};

/// A replayed subrun reduced to its live state: no event history, no
/// intermediate instances — just what the next push needs.
#[derive(Debug)]
pub struct ScratchRun {
    spec: Arc<WorkflowSpec>,
    current: Instance,
    plane: ViewPlane,
    /// `const(P) ∪ adom(initial) ∪ ⋃ adom(I_j)` — maintained exactly like
    /// [`Run::push`] does, so freshness decisions agree.
    past_adom: BTreeSet<Value>,
    /// The non-empty per-peer view deltas of the most recent push.
    last_deltas: Vec<(PeerId, ViewDelta)>,
    len: usize,
}

impl ScratchRun {
    /// An empty scratch run over `initial` (mirrors [`Run::with_initial`]).
    pub fn new(spec: Arc<WorkflowSpec>, initial: Instance) -> Self {
        let mut past_adom = spec.program().const_set();
        past_adom.remove(&Value::Null);
        past_adom.extend(initial.adom());
        let plane = ViewPlane::new(spec.collab(), &initial);
        ScratchRun {
            spec,
            current: initial,
            plane,
            past_adom,
            last_deltas: Vec::new(),
            len: 0,
        }
    }

    /// An empty scratch run sharing `run`'s spec and starting from its
    /// initial instance — the seed of every subsequence replay.
    pub fn restart_of(run: &Run) -> Self {
        ScratchRun::new(run.spec_arc(), run.initial().clone())
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The workflow spec.
    pub fn spec(&self) -> &WorkflowSpec {
        &self.spec
    }

    /// The current instance.
    pub fn current(&self) -> &Instance {
        &self.current
    }

    /// Peer `p`'s incrementally maintained view of [`ScratchRun::current`].
    pub fn view(&self, p: PeerId) -> &ViewInstance {
        self.plane.view(p)
    }

    /// Did the most recent push change `p`'s view? Together with event
    /// ownership this is exactly the visibility test of Section 3
    /// (`I_{i−1}@p ≠ I_i@p` ⟺ the peer's delta is non-empty).
    pub fn changed(&self, p: PeerId) -> bool {
        self.last_deltas.iter().any(|(q, _)| *q == p)
    }

    /// Appends an event under the same admission rules as [`Run::push`]:
    /// the global-freshness check first, then the transition evaluated on
    /// the acting peer's maintained view. On error the state is untouched.
    pub fn try_push(&mut self, event: &Event) -> Result<(), EngineError> {
        check_fresh(&self.spec, &self.past_adom, event)?;
        let diff = apply_event_in_place(
            &self.spec,
            &mut self.current,
            self.plane.view(event.peer),
            event,
        )?
        .diff;
        self.past_adom.extend(diff.written_values());
        self.last_deltas = self.plane.step(self.spec.collab(), &diff, &self.current);
        self.len += 1;
        Ok(())
    }
}

impl Clone for ScratchRun {
    fn clone(&self) -> Self {
        ScratchRun {
            spec: Arc::clone(&self.spec),
            current: self.current.clone(),
            plane: self.plane.clone(),
            past_adom: self.past_adom.clone(),
            last_deltas: self.last_deltas.clone(),
            len: self.len,
        }
    }

    /// Reuses the destination's buffers where the columnar layout allows —
    /// this is what makes per-depth arena slots cheap to overwrite.
    fn clone_from(&mut self, src: &Self) {
        self.spec.clone_from(&src.spec);
        self.current.clone_from(&src.current);
        self.plane.clone_from(&src.plane);
        self.past_adom.clone_from(&src.past_adom);
        self.last_deltas.clone_from(&src.last_deltas);
        self.len = src.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::parse_workflow;

    fn spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); C1(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), C1(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    b1 @ q: +C1(0) :- V1(0);
                    b2 @ q: +C1(0) :- V2(0);
                    ok @ q: +OK(0) :- C1(0);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ground(spec: &WorkflowSpec, name: &str) -> Event {
        let id = spec.program().rule_by_name(name).unwrap();
        Event::new(spec, id, Bindings::empty(0)).unwrap()
    }

    /// Pushing the same events into a `Run` and a `ScratchRun` must agree on
    /// acceptance, current instance, and every peer view at every step.
    #[test]
    fn tracks_run_step_for_step() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        let mut scratch = ScratchRun::restart_of(&run);
        let p = spec.collab().peer("p").unwrap();
        let q = spec.collab().peer("q").unwrap();
        for name in ["a1", "b1", "ok"] {
            let e = ground(&spec, name);
            run.push(e.clone()).unwrap();
            scratch.try_push(&e).unwrap();
            assert_eq!(scratch.current(), run.current());
            for peer in [p, q] {
                assert_eq!(scratch.view(peer), run.peer_view(peer));
                // Visibility of the just-pushed event agrees with the run's.
                let i = run.len() - 1;
                let own = run.event(i).peer == peer;
                assert_eq!(own || scratch.changed(peer), run.visible_at(i, peer));
            }
        }
        assert_eq!(scratch.len(), 3);
    }

    /// Rejections mirror `Run::push` and leave the state untouched.
    #[test]
    fn rejects_like_run_and_stays_consistent() {
        let spec = spec();
        let mut scratch =
            ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        // `ok` needs C1: rejected on the empty state.
        let before = scratch.current().clone();
        assert!(scratch.try_push(&ground(&spec, "ok")).is_err());
        assert_eq!(scratch.current(), &before);
        assert_eq!(scratch.len(), 0);
        // After the enabling chain it is accepted.
        scratch.try_push(&ground(&spec, "a1")).unwrap();
        scratch.try_push(&ground(&spec, "b1")).unwrap();
        scratch.try_push(&ground(&spec, "ok")).unwrap();
        assert_eq!(scratch.len(), 3);
    }

    /// `clone_from` produces a state indistinguishable from a fresh clone.
    #[test]
    fn clone_from_matches_clone() {
        let spec = spec();
        let mut a = ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        a.try_push(&ground(&spec, "a1")).unwrap();
        a.try_push(&ground(&spec, "b1")).unwrap();
        // A dirty destination from a different branch.
        let mut slot = ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        slot.try_push(&ground(&spec, "a2")).unwrap();
        slot.clone_from(&a);
        let q = spec.collab().peer("q").unwrap();
        assert_eq!(slot.current(), a.current());
        assert_eq!(slot.view(q), a.view(q));
        assert_eq!(slot.len(), a.len());
        // Both continue identically.
        let e = ground(&spec, "ok");
        slot.try_push(&e).unwrap();
        a.try_push(&e).unwrap();
        assert_eq!(slot.current(), a.current());
    }
}
