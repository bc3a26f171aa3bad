//! Instance deltas.
//!
//! The observable effect of an event — and the head of a synthesized ω-rule
//! (Theorem 5.13) — is the *difference* between two instances: created
//! tuples, deleted keys, and attribute modifications on surviving keys.
//! [`InstanceDiff`] computes and renders that difference; the engine's
//! update semantics guarantee that successive run instances differ exactly
//! by such a delta.

use std::fmt;

use crate::instance::Instance;
use crate::schema::{AttrId, RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// One changed attribute of a surviving tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrChange {
    /// The attribute.
    pub attr: AttrId,
    /// The value before.
    pub before: Value,
    /// The value after.
    pub after: Value,
}

/// The difference between two instances over the same schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstanceDiff {
    /// Tuples present in `after` whose key is absent from `before`.
    pub created: Vec<(RelId, Tuple)>,
    /// Tuples present in `before` whose key is absent from `after`.
    pub deleted: Vec<(RelId, Tuple)>,
    /// Per surviving key with differing tuples: the changed attributes.
    pub modified: Vec<(RelId, Value, Vec<AttrChange>)>,
}

impl InstanceDiff {
    /// Computes `after − before` by scanning both instances — the
    /// from-scratch reference for the diffs the transition emits.
    pub fn between(before: &Instance, after: &Instance) -> InstanceDiff {
        debug_assert_eq!(before.width(), after.width());
        let mut out = InstanceDiff::default();
        for r in 0..before.width() {
            let rel = RelId(r as u32);
            for t in after.rel(rel).iter() {
                out.record(rel, before.rel(rel).get(t.key()), Some(t));
            }
            for t in before.rel(rel).iter() {
                if !after.rel(rel).contains_key(t.key()) {
                    out.record(rel, Some(t), None);
                }
            }
        }
        out
    }

    /// Adds the change of one key from `before` to `after` (`None`: no tuple
    /// under the key): a creation, a deletion, a modification listing the
    /// differing attributes, or nothing when the tuples are equal.
    pub fn record(&mut self, rel: RelId, before: Option<&Tuple>, after: Option<&Tuple>) {
        match (before, after) {
            (None, Some(t)) => self.created.push((rel, t.clone())),
            (Some(t), None) => self.deleted.push((rel, t.clone())),
            (Some(old), Some(new)) if old != new => {
                let changes = old
                    .entries()
                    .filter(|(a, v)| new.get(*a) != *v)
                    .map(|(a, v)| AttrChange {
                        attr: a,
                        before: *v,
                        after: *new.get(a),
                    })
                    .collect();
                self.modified.push((rel, *new.key(), changes));
            }
            _ => {}
        }
    }

    /// Sorts every part by `(rel, key)`, the order [`InstanceDiff::between`]
    /// produces.
    pub fn normalize(&mut self) {
        self.created
            .sort_by(|a, b| (a.0, a.1.key()).cmp(&(b.0, b.1.key())));
        self.deleted
            .sort_by(|a, b| (a.0, a.1.key()).cmp(&(b.0, b.1.key())));
        self.modified.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    }

    /// Turns `before` into `after` in place, where `self` is
    /// `after − before`.
    pub fn apply(&self, instance: &mut Instance) {
        self.shift(instance, true);
    }

    /// Turns `after` back into `before` in place, where `self` is
    /// `after − before`: the inverse of [`InstanceDiff::apply`], using the
    /// removed tuples and [`AttrChange::before`].
    pub fn revert(&self, instance: &mut Instance) {
        self.shift(instance, false);
    }

    /// Moves `instance` across the diff, forward or back.
    fn shift(&self, instance: &mut Instance, forward: bool) {
        let (gone, come) = if forward {
            (&self.deleted, &self.created)
        } else {
            (&self.created, &self.deleted)
        };
        for (rel, t) in gone {
            instance.rel_mut(*rel).remove(t.key());
        }
        for (rel, key, changes) in &self.modified {
            let t = instance
                .rel_mut(*rel)
                .get_mut(key)
                .expect("a modified key is present on both sides of the diff");
            for c in changes {
                t.set(c.attr, if forward { c.after } else { c.before });
            }
        }
        for (rel, t) in come {
            instance
                .rel_mut(*rel)
                .insert(t.clone())
                .expect("stored tuples have non-null keys");
        }
    }

    /// The non-null values the diff writes: those of created tuples and the
    /// after-values of modifications. Every value of `after` is in `before`
    /// or among these.
    pub fn written_values(&self) -> impl Iterator<Item = &Value> {
        let created = self.created.iter().flat_map(|(_, t)| t.values());
        let modified = self
            .modified
            .iter()
            .flat_map(|(_, _, changes)| changes.iter().map(|c| &c.after));
        created.chain(modified).filter(|v| !v.is_null())
    }

    /// Is there no difference?
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.deleted.is_empty() && self.modified.is_empty()
    }

    /// Total number of changes.
    pub fn len(&self) -> usize {
        self.created.len() + self.deleted.len() + self.modified.len()
    }

    /// Renders against a schema: `+R(...)`, `-R(...)`, `~R[key].A: a→b`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DiffDisplay<'a> {
        DiffDisplay { diff: self, schema }
    }
}

/// Display adaptor for diffs.
pub struct DiffDisplay<'a> {
    diff: &'a InstanceDiff,
    schema: &'a Schema,
}

impl fmt::Display for DiffDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                writeln!(f)?;
            }
            first = false;
            Ok(())
        };
        for (r, t) in &self.diff.created {
            sep(f)?;
            write!(f, "+{}", t.display(self.schema.relation(*r)))?;
        }
        for (r, t) in &self.diff.deleted {
            sep(f)?;
            write!(f, "-{}", t.display(self.schema.relation(*r)))?;
        }
        for (r, k, changes) in &self.diff.modified {
            sep(f)?;
            let rs = self.schema.relation(*r);
            write!(f, "~{}[{}]", rs.name(), k)?;
            for c in changes {
                write!(f, " {}: {}→{}", rs.attr_name(c.attr), c.before, c.after)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn schema() -> Schema {
        Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap()
    }

    const R: RelId = RelId(0);

    fn t(k: i64, a: Option<&str>) -> Tuple {
        Tuple::new([Value::int(k), a.map(Value::str).unwrap_or(Value::Null)])
    }

    #[test]
    fn empty_diff() {
        let s = schema();
        let i = Instance::empty(&s);
        let d = InstanceDiff::between(&i, &i);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.display(&s).to_string(), "");
    }

    #[test]
    fn created_deleted_modified() {
        let s = schema();
        let mut before = Instance::empty(&s);
        before.rel_mut(R).insert(t(1, None)).unwrap(); // will be modified
        before.rel_mut(R).insert(t(2, Some("x"))).unwrap(); // will be deleted
        let mut after = Instance::empty(&s);
        after.rel_mut(R).insert(t(1, Some("a"))).unwrap();
        after.rel_mut(R).insert(t(3, Some("n"))).unwrap(); // created
        let d = InstanceDiff::between(&before, &after);
        assert_eq!(d.created, vec![(R, t(3, Some("n")))]);
        assert_eq!(d.deleted, vec![(R, t(2, Some("x")))]);
        assert_eq!(d.modified.len(), 1);
        let (_, k, changes) = &d.modified[0];
        assert_eq!(k, &Value::int(1));
        assert_eq!(
            changes,
            &vec![AttrChange {
                attr: AttrId(1),
                before: Value::Null,
                after: Value::str("a")
            }]
        );
        assert_eq!(d.len(), 3);
        let shown = d.display(&s).to_string();
        assert!(shown.contains("+R(3, \"n\")"));
        assert!(shown.contains("-R(2, \"x\")"));
        assert!(shown.contains("~R[1] A: ⊥→\"a\""));
    }

    #[test]
    fn apply_and_revert_invert_each_other() {
        let s = schema();
        let mut before = Instance::empty(&s);
        before.rel_mut(R).insert(t(1, None)).unwrap();
        before.rel_mut(R).insert(t(2, Some("x"))).unwrap();
        let mut after = Instance::empty(&s);
        after.rel_mut(R).insert(t(1, Some("a"))).unwrap();
        after.rel_mut(R).insert(t(3, Some("n"))).unwrap();
        let d = InstanceDiff::between(&before, &after);
        let mut i = before.clone();
        d.apply(&mut i);
        assert_eq!(i, after);
        d.revert(&mut i);
        assert_eq!(i, before);
        let written: Vec<_> = d.written_values().copied().collect();
        assert_eq!(
            written,
            vec![Value::int(3), Value::str("n"), Value::str("a")]
        );
    }

    #[test]
    fn diff_is_antisymmetric_in_created_deleted() {
        let s = schema();
        let mut a = Instance::empty(&s);
        a.rel_mut(R).insert(t(1, Some("x"))).unwrap();
        let b = Instance::empty(&s);
        let fwd = InstanceDiff::between(&b, &a);
        let bwd = InstanceDiff::between(&a, &b);
        assert_eq!(fwd.created, bwd.deleted);
        assert_eq!(fwd.deleted, bwd.created);
    }
}
