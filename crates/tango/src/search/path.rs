//! Search paths shared between a node and its descendants.
//!
//! Every MDFS node remembers the transitions fired on the way to it, for
//! the witness and for checkpoints. Copying the parent's whole path into
//! each child costs O(depth) allocations per fire and keeps one private
//! copy per parked PG-node. A [`SharedPath`] instead is a parent-linked
//! list: a child adds one link (the transition's name and the new length)
//! on top of its parent's, and siblings share everything above them. The
//! `Vec<String>` form is built only where a path leaves the search — the
//! witness, and checkpoint freeze/thaw.

use std::sync::Arc;

/// A transition sequence from the root, as an `Arc`-shared linked list.
/// Cloning is one reference-count increment; the empty path allocates
/// nothing.
#[derive(Clone, Default)]
pub(crate) struct SharedPath(Option<Arc<Link>>);

struct Link {
    name: Arc<str>,
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
    pub(crate) fn push(&self, name: Arc<str>) -> SharedPath {
        SharedPath(Some(Arc::new(Link {
            name,
            len: self.len() + 1,
            parent: self.clone(),
        })))
    }

    /// The transition names, root first.
    pub(crate) fn to_vec(&self) -> Vec<String> {
        let mut out = vec![String::new(); self.len()];
        let mut at = self.0.as_deref();
        while let Some(l) = at {
            out[l.len - 1] = l.name.to_string();
            at = l.parent.0.as_deref();
        }
        out
    }

    /// A path from names, root first (checkpoint thaw).
    pub(crate) fn from_names(names: Vec<String>) -> SharedPath {
        names
            .into_iter()
            .fold(SharedPath::default(), |p, n| p.push(n.into()))
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

    fn names(p: &SharedPath) -> Vec<String> {
        p.to_vec()
    }

    #[test]
    fn children_share_their_parent_and_read_back_root_first() {
        let root = SharedPath::default();
        assert_eq!(root.len(), 0);
        assert!(names(&root).is_empty());
        let a = root.push("t1".into());
        let ab = a.push("t2".into());
        let ac = a.push("t3".into());
        drop(a);
        assert_eq!(ab.len(), 2);
        assert_eq!(names(&ab), ["t1", "t2"]);
        assert_eq!(names(&ac), ["t1", "t3"]);
        let back = SharedPath::from_names(names(&ac));
        assert_eq!(back.len(), 2);
        assert_eq!(names(&back), ["t1", "t3"]);
    }

    #[test]
    fn a_million_deep_path_drops_without_overflowing_the_stack() {
        let name: Arc<str> = "t".into();
        let mut p = SharedPath::default();
        for _ in 0..1_000_000 {
            p = p.push(name.clone());
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
