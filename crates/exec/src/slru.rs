//! A reusable **segmented-LRU recency index** over slab slot ids.
//!
//! The probation/protected replacement scheme shared by the decoded-block
//! cache ([`crate::SharedBlockCache`]) and the result store
//! ([`crate::ResultStore`]): fresh entries enter a *probationary* segment
//! and are promoted to a *protected* segment on their first re-use, so a
//! one-shot stream (an open-ended corpus sweep, a cold figure grid, a
//! straight-line prologue) cannot wash re-used entries out. Eviction takes
//! the probationary LRU first and touches the protected segment only when
//! probation is empty.
//!
//! Re-use of an entry that is already protected only sets its
//! **reference bit** — no list relink — which keeps a decoded-block hit,
//! the engine's hottest cache operation, to a load and a store. The bits
//! are consulted when the protected segment overflows its share: a
//! referenced LRU gets a second chance (moved to the MRU end, bit
//! cleared, as a CLOCK hand would), and the first unreferenced LRU is
//! demoted back to probation.
//!
//! The index tracks recency *only*: callers own the slab of values and a
//! key map, and pair every slab insert/remove/lookup with the matching
//! [`SlruIndex`] call. Slot ids are the caller's slab indices.

/// Sentinel for "no slot" in the intrusive lists.
const NONE: u32 = u32::MAX;

/// Which segment a tracked slot lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    /// Freshly inserted, not yet re-used.
    Probation,
    /// Re-used at least once; evicted only when probation is empty.
    Protected,
}

/// Head/tail/length of one segment's recency list (head = MRU).
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NONE,
        tail: NONE,
        len: 0,
    };
}

/// One tracked slot's intrusive links.
#[derive(Clone, Copy, Debug)]
struct Node {
    seg: Segment,
    /// Re-used since it was last promoted or given a second chance
    /// (meaningful on the protected segment only).
    referenced: bool,
    prev: u32,
    next: u32,
}

/// The segmented-LRU recency index (see the module docs).
#[derive(Debug)]
pub(crate) struct SlruIndex {
    /// Links per slot id; untracked ids hold `None`.
    nodes: Vec<Option<Node>>,
    probation: List,
    protected: List,
    /// Maximum protected residents (the classic SLRU ~¾ split); promotion
    /// past this demotes an unreferenced protected entry back to
    /// probation instead of evicting it.
    protected_cap: usize,
}

impl SlruIndex {
    /// An empty index whose protected segment holds at most ~¾ of
    /// `capacity` entries.
    pub(crate) fn new(capacity: usize) -> SlruIndex {
        SlruIndex {
            nodes: Vec::new(),
            probation: List::EMPTY,
            protected: List::EMPTY,
            protected_cap: (capacity * 3 / 4).max(1),
        }
    }

    fn list_mut(&mut self, seg: Segment) -> &mut List {
        match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        }
    }

    fn node(&self, id: u32) -> Node {
        self.nodes[id as usize].expect("tracked slot")
    }

    fn node_mut(&mut self, id: u32) -> &mut Node {
        self.nodes[id as usize].as_mut().expect("tracked slot")
    }

    /// Unthreads `id` from its segment list (the node stays allocated).
    fn unlink(&mut self, id: u32) {
        let Node {
            seg, prev, next, ..
        } = self.node(id);
        if prev == NONE {
            self.list_mut(seg).head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NONE {
            self.list_mut(seg).tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
        self.list_mut(seg).len -= 1;
    }

    /// Starts tracking slot `id` as the probationary MRU.
    pub(crate) fn insert(&mut self, id: u32) {
        if self.nodes.len() <= id as usize {
            self.nodes.resize(id as usize + 1, None);
        }
        debug_assert!(self.nodes[id as usize].is_none(), "slot tracked twice");
        self.nodes[id as usize] = Some(Node {
            seg: Segment::Probation,
            referenced: false,
            prev: NONE,
            next: NONE,
        });
        self.push_front(Segment::Probation, id);
    }

    /// Threads `id` (not currently on any list) onto the MRU end of `seg`
    /// with its reference bit clear.
    fn push_front(&mut self, seg: Segment, id: u32) {
        let head = self.list_mut(seg).head;
        *self.node_mut(id) = Node {
            seg,
            referenced: false,
            prev: NONE,
            next: head,
        };
        if head != NONE {
            self.node_mut(head).prev = id;
        }
        let list = self.list_mut(seg);
        list.head = id;
        if list.tail == NONE {
            list.tail = id;
        }
        list.len += 1;
    }

    /// Records a re-use of `id`. A protected entry only has its reference
    /// bit set; a probationary one is promoted to the protected MRU, and
    /// if that overflows the segment's share, [`SlruIndex::rebalance`]
    /// demotes one unreferenced protected entry.
    #[inline]
    pub(crate) fn touch(&mut self, id: u32) {
        let node = self.node_mut(id);
        if node.seg == Segment::Protected {
            node.referenced = true;
        } else {
            self.promote(id);
        }
    }

    /// The cold half of [`SlruIndex::touch`]: moves probationary `id` to
    /// the protected MRU and rebalances.
    #[inline(never)]
    fn promote(&mut self, id: u32) {
        self.unlink(id);
        self.push_front(Segment::Protected, id);
        if self.protected.len > self.protected_cap {
            self.rebalance();
        }
    }

    /// Demotes exactly one protected entry to the probationary MRU (it
    /// stays resident, ahead of cold entries). Referenced LRUs get a
    /// second chance first: each is moved to the protected MRU with its
    /// bit cleared. Every step clears a bit, so this ends within one
    /// sweep of the segment even when every entry is referenced.
    fn rebalance(&mut self) {
        loop {
            let lru = self.protected.tail;
            let second_chance = self.node(lru).referenced;
            self.unlink(lru);
            if second_chance {
                self.push_front(Segment::Protected, lru);
            } else {
                self.push_front(Segment::Probation, lru);
                return;
            }
        }
    }

    /// Stops tracking `id` (after the caller removed it from its slab).
    pub(crate) fn remove(&mut self, id: u32) {
        self.unlink(id);
        self.nodes[id as usize] = None;
    }

    /// The current eviction victim: the probationary LRU, else the
    /// protected LRU, else `None` when nothing is tracked. The caller
    /// removes the victim from its slab and then calls
    /// [`SlruIndex::remove`].
    pub(crate) fn victim(&self) -> Option<u32> {
        if self.probation.tail != NONE {
            Some(self.probation.tail)
        } else if self.protected.tail != NONE {
            Some(self.protected.tail)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_fifo_until_touched() {
        let mut ix = SlruIndex::new(8);
        for id in 0..4 {
            ix.insert(id);
        }
        assert_eq!(ix.victim(), Some(0), "probationary LRU is the oldest");
        ix.remove(0);
        assert_eq!(ix.victim(), Some(1));
    }

    #[test]
    fn touched_entries_outlive_a_cold_stream() {
        let mut ix = SlruIndex::new(4);
        ix.insert(0);
        ix.touch(0); // promoted
        for id in 1..40 {
            ix.insert(id);
            let v = ix.victim().unwrap();
            assert_ne!(v, 0, "protected entry must not be the victim");
            ix.remove(v);
        }
    }

    #[test]
    fn protected_overflow_demotes_not_evicts() {
        let mut ix = SlruIndex::new(4); // protected cap = 3
        for id in 0..5 {
            ix.insert(id);
            ix.touch(id);
        }
        // All five still tracked; two have been demoted to probation.
        let mut seen = 0;
        while let Some(v) = ix.victim() {
            ix.remove(v);
            seen += 1;
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn referenced_protected_lru_survives_one_overflow() {
        let mut ix = SlruIndex::new(4); // protected cap = 3
        for id in 0..3 {
            ix.insert(id);
            ix.touch(id); // protected, MRU → LRU: 2, 1, 0
        }
        ix.touch(0); // the protected LRU is re-used: reference bit only
        ix.insert(3);
        ix.touch(3); // overflow: 0 gets its second chance, 1 is demoted
        assert_eq!(ix.node(0).seg, Segment::Protected);
        assert!(!ix.node(0).referenced, "the second chance clears the bit");
        assert_eq!(ix.node(1).seg, Segment::Probation);
        assert_eq!(ix.victim(), Some(1));
        assert_eq!((ix.probation.len, ix.protected.len), (1, 3));
    }

    #[test]
    fn all_referenced_protected_segment_demotes_exactly_one() {
        let mut ix = SlruIndex::new(4); // protected cap = 3
        for id in 0..3 {
            ix.insert(id);
            ix.touch(id); // promote
            ix.touch(id); // reference
        }
        ix.insert(3);
        ix.touch(3);
        assert_eq!((ix.probation.len, ix.protected.len), (1, 3));
        let demoted: Vec<u32> = (0..4)
            .filter(|&id| ix.node(id).seg == Segment::Probation)
            .collect();
        assert_eq!(demoted.len(), 1, "exactly one demotion: {demoted:?}");
        assert!(
            (0..4).all(|id| !ix.node(id).referenced),
            "the sweep cleared every bit it passed"
        );
    }
}
