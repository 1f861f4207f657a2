//! Search paths shared between a node and its descendants.
//!
//! The search records a path as compiled-transition indices; names are
//! looked up only where a path leaves the search, the witness and the
//! best-effort localization ([`SharedPath::to_vec`]). Indices, not names,
//! are what checkpoints store: transition names are not unique.
//!
//! Every search node remembers the transitions fired on the way to it.
//! Copying the parent's whole path into each child costs O(depth)
//! allocations per fire and keeps one private copy per parked PG-node. A
//! [`SharedPath`] instead is a parent-linked list: a child adds one link
//! (the transition index and the new length) on top of its parent's, and
//! siblings share everything above them.

use estelle_runtime::Machine;
use std::sync::Arc;

/// A transition sequence from the root, as an `Arc`-shared linked list.
/// Cloning is one reference-count increment; the empty path allocates
/// nothing.
#[derive(Clone, Default)]
pub(crate) struct SharedPath(Option<Arc<Link>>);

struct Link {
    trans: u32,
    /// Length of the path ending at this link.
    len: usize,
    parent: SharedPath,
}

impl SharedPath {
    /// Number of transitions on the path.
    pub(crate) fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |l| l.len)
    }

    /// This path extended by one transition.
    pub(crate) fn push(&self, trans: u32) -> SharedPath {
        SharedPath(Some(Arc::new(Link {
            trans,
            len: self.len() + 1,
            parent: self.clone(),
        })))
    }

    /// Extend this path by one transition in place: the old head becomes
    /// the new link's parent without a reference-count round trip.
    pub(crate) fn extend(&mut self, trans: u32) {
        let parent = std::mem::take(self);
        let len = parent.len() + 1;
        *self = SharedPath(Some(Arc::new(Link { trans, len, parent })));
    }

    /// The transition indices, root first.
    pub(crate) fn to_indices(&self) -> Vec<u32> {
        let mut out = vec![0; self.len()];
        let mut at = self.0.as_deref();
        while let Some(l) = at {
            out[l.len - 1] = l.trans;
            at = l.parent.0.as_deref();
        }
        out
    }

    /// The transition names, root first.
    pub(crate) fn to_vec(&self, machine: &Machine) -> Vec<String> {
        let name = |&t: &u32| machine.transition_name(t as usize).to_string();
        self.to_indices().iter().map(name).collect()
    }

    /// A path from transition indices, root first (checkpoint thaw).
    pub(crate) fn from_indices(path: &[u32]) -> SharedPath {
        path.iter().fold(SharedPath::default(), |p, &t| p.push(t))
    }
}

impl Drop for Link {
    /// Unlink iteratively: the default recursive drop of a long chain
    /// that this link owns alone would overflow the stack.
    fn drop(&mut self) {
        let mut next = self.parent.0.take();
        while let Some(link) = next {
            next = match Arc::into_inner(link) {
                Some(mut l) => l.parent.0.take(),
                None => None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_their_parent_and_read_back_root_first() {
        let root = SharedPath::default();
        assert_eq!(root.len(), 0);
        assert!(root.to_indices().is_empty());
        let a = root.push(1);
        let ab = a.push(2);
        let ac = a.push(3);
        drop(a);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.to_indices(), [1, 2]);
        assert_eq!(ac.to_indices(), [1, 3]);
        let back = SharedPath::from_indices(&ac.to_indices());
        assert_eq!(back.len(), 2);
        assert_eq!(back.to_indices(), [1, 3]);
    }

    #[test]
    fn a_million_deep_path_drops_without_overflowing_the_stack() {
        let mut p = SharedPath::default();
        for _ in 0..1_000_000 {
            p = p.push(7);
        }
        assert_eq!(p.len(), 1_000_000);
        // A second owner of the middle of the chain stops the unlink
        // there, and still drops iteratively on its own.
        let mut mid = p.clone();
        for _ in 0..500_000 {
            mid = mid.0.as_ref().map(|l| l.parent.clone()).unwrap_or_default();
        }
        assert_eq!(mid.len(), 500_000);
        drop(p);
        assert_eq!(mid.len(), 500_000);
        drop(mid);
    }
}
