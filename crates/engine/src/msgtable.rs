//! Dense message table: the shared in-flight-message store for every
//! network model.
//!
//! Message ids are dense `u64`s assigned from 0 (asserted by the trace
//! capture hook and guaranteed by `CmpSim`'s message counter), so the
//! classic `HashMap<u64, MsgState>` on the per-event path pays hashing
//! for nothing. [`MsgTable`] replaces it with a slab plus an id→slot
//! index: lookups are two array loads, inserts/removes are O(1) with a
//! free-list, and memory stays bounded by `4 bytes × max id` for the
//! index plus `size_of::<T>() × max concurrently in-flight` for the
//! slab — ids only ever grow the cheap index, never the slab.

const NONE: u32 = u32::MAX;

/// O(1) id-keyed store for in-flight message state, indexed by dense
/// [`MsgId`](crate::net::MsgId)s. All operations take the raw `u64` id (`msg.id.0`).
#[derive(Debug, Clone, Default)]
pub struct MsgTable<T> {
    /// Slab of live entries; `None` entries are on the free-list.
    slots: Vec<Option<T>>,
    /// `index[id]` = slot of `id`'s entry, or `NONE`.
    index: Vec<u32>,
    /// Vacated slab positions, reused LIFO.
    free: Vec<u32>,
    len: usize,
}

impl<T> MsgTable<T> {
    pub fn new() -> Self {
        MsgTable {
            slots: Vec::new(),
            index: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Pre-size for `ids` message ids and `inflight` concurrent entries.
    pub fn with_capacity(ids: usize, inflight: usize) -> Self {
        MsgTable {
            slots: Vec::with_capacity(inflight),
            index: Vec::with_capacity(ids),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, id: u64) -> Option<usize> {
        match self.index.get(id as usize) {
            Some(&s) if s != NONE => Some(s as usize),
            _ => None,
        }
    }

    /// Insert `value` under `id`, returning the previous entry if one
    /// was present (the models treat that as a duplicate-id bug and
    /// assert on it).
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let idx = id as usize;
        assert!(
            idx < (u32::MAX as usize),
            "MsgTable id {id} out of dense range"
        );
        if idx >= self.index.len() {
            self.index.resize(idx + 1, NONE);
        }
        let existing = self.index[idx];
        if existing != NONE {
            return self.slots[existing as usize].replace(value);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(value);
                s
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        };
        self.index[idx] = slot;
        self.len += 1;
        None
    }

    /// Remove and return the entry for `id`, freeing its slab slot.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let slot = self.slot_of(id)?;
        self.index[id as usize] = NONE;
        self.free.push(slot as u32);
        self.len -= 1;
        self.slots[slot].take()
    }

    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slot_of(id).and_then(|s| self.slots[s].as_ref())
    }

    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot_of(id) {
            Some(s) => self.slots[s].as_mut(),
            None => None,
        }
    }

    pub fn contains(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// Iterate over live `(id, &value)` pairs in id order. O(index len);
    /// meant for drain/validation paths, not the per-event path.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.index.iter().enumerate().filter_map(|(id, &s)| {
            if s == NONE {
                None
            } else {
                self.slots[s as usize].as_ref().map(|v| (id as u64, v))
            }
        })
    }
}

impl<T> std::ops::Index<u64> for MsgTable<T> {
    type Output = T;

    /// Panics if `id` has no entry (the models treat that as a protocol
    /// bug, mirroring `HashMap`'s index behaviour).
    fn index(&self, id: u64) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("no in-flight entry for message id {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = MsgTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(3, "a"), None);
        assert_eq!(t.insert(0, "b"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(&"a"));
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(3), Some("a"));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.len(), 1);
        assert!(t.contains(0));
        assert!(!t.contains(3));
    }

    #[test]
    fn slots_are_reused() {
        let mut t = MsgTable::new();
        for id in 0..100u64 {
            t.insert(id, id * 2);
            t.remove(id);
        }
        // Every insert vacated its slot before the next one: the slab
        // never needed more than one slot.
        assert_eq!(t.slots.len(), 1);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn duplicate_insert_returns_previous() {
        let mut t = MsgTable::new();
        assert_eq!(t.insert(7, 1u32), None);
        assert_eq!(t.insert(7, 2u32), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&2));
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = MsgTable::new();
        t.insert(5, vec![1u8]);
        t.get_mut(5).unwrap().push(2);
        assert_eq!(t.get(5).unwrap().as_slice(), &[1, 2]);
        assert_eq!(t.get_mut(6), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = MsgTable::new();
        for id in [9u64, 2, 5, 0] {
            t.insert(id, id);
        }
        t.remove(5);
        let got: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(got, vec![0, 2, 9]);
    }
}
