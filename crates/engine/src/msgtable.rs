//! Message table: the shared in-flight-message store for every network
//! model.
//!
//! A model holds a message from injection to delivery and looks it up
//! by id on every event, so the classic `HashMap<u64, MsgState>` on the
//! per-event path pays SipHash for nothing. [`MsgTable`] is an
//! open-addressed table instead: one multiply finds an id's home cell,
//! linear probing its place, and removal shifts the cells behind it
//! back, so no tombstone is ever left. The table is sized by the ids
//! live at once — at least four times as many cells as entries,
//! doubling when an insert would pass that — never by how large the ids
//! have grown: a model that has delivered millions of messages and
//! holds 64 holds 256 cells.
//!
//! Probing reads only a column of `u32` keys, sixteen to a cache line,
//! and a quarter full a probe rarely passes its home cell, so the branch
//! that ends it is mostly predicted right; cells of `(id, value)` half
//! full made the flagship loop measurably slower (EXPERIMENTS.md §P45).
//! The hash is Fibonacci hashing (the top bits of `id × 2⁶⁴/φ`), not
//! `id & mask`: a capture numbers its messages `seq × cores + src`, so
//! one busy source's live ids share their low bits and would all land
//! in one run of cells.

/// A cell with no entry: no id reaches `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// O(1) id-keyed store for in-flight message state. All operations take
/// the raw `u64` id (`msg.id.0`), which must be below `u32::MAX`.
#[derive(Debug, Clone)]
pub struct MsgTable<T> {
    /// Each cell's id, or [`EMPTY`]: a power of two long (or empty), at
    /// least four times `len`, and every run of occupied cells unbroken
    /// from each entry's home cell to the entry.
    keys: Vec<u32>,
    /// Each cell's entry, `Some` exactly where `keys` holds an id.
    vals: Vec<Option<T>>,
    /// `64 − log2(keys.len())`: the shift that leaves an id's home.
    shift: u32,
    len: usize,
}

/// Cells of a table's first allocation.
const MIN_CELLS: usize = 8;

impl<T> Default for MsgTable<T> {
    fn default() -> Self {
        MsgTable {
            keys: Vec::new(),
            vals: Vec::new(),
            shift: 64,
            len: 0,
        }
    }
}

impl<T> MsgTable<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell probing for `id` starts at.
    #[inline]
    fn home(&self, id: u32) -> usize {
        (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(cell)` holding `id`, or `Err(cell)`: the free cell that ends
    /// its probe, where an insert puts it. The table must have cells.
    #[inline]
    fn find(&self, id: u32) -> Result<usize, usize> {
        let mask = self.keys.len() - 1;
        let mut c = self.home(id);
        loop {
            match self.keys[c] {
                k if k == id => return Ok(c),
                EMPTY => return Err(c),
                _ => c = (c + 1) & mask,
            }
        }
    }

    /// The cell holding `id`, if any.
    #[inline]
    fn cell_of(&self, id: u64) -> Option<usize> {
        if self.len == 0 || id >= u64::from(EMPTY) {
            return None;
        }
        self.find(id as u32).ok()
    }

    /// Double the cells (at least [`MIN_CELLS`]) and put every entry
    /// back.
    fn grow(&mut self) {
        let cells = (2 * self.keys.len()).max(MIN_CELLS);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; cells]);
        let vals = std::mem::replace(&mut self.vals, (0..cells).map(|_| None).collect());
        self.shift = 64 - cells.trailing_zeros();
        for (id, v) in keys.into_iter().zip(vals).filter(|e| e.0 != EMPTY) {
            let c = self.find(id).unwrap_err();
            self.keys[c] = id;
            self.vals[c] = v;
        }
    }

    /// Insert `value` under `id`, returning the previous entry if one
    /// was present (the models treat that as a duplicate-id bug and
    /// assert on it).
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        assert!(
            id < u64::from(EMPTY),
            "MsgTable id {id} out of the u32 id range"
        );
        if 4 * (self.len + 1) > self.keys.len() {
            self.grow();
        }
        match self.find(id as u32) {
            Ok(c) => self.vals[c].replace(value),
            Err(c) => {
                self.keys[c] = id as u32;
                self.vals[c] = Some(value);
                self.len += 1;
                None
            }
        }
    }

    /// Remove and return the entry for `id`.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let mut hole = self.cell_of(id)?;
        let value = self.vals[hole].take();
        self.len -= 1;
        // Close the hole: an entry further along the run moves into it
        // unless its home lies cyclically after the hole.
        let mask = self.keys.len() - 1;
        let mut c = (hole + 1) & mask;
        while self.keys[c] != EMPTY {
            let from_home = c.wrapping_sub(self.home(self.keys[c])) & mask;
            if from_home >= c.wrapping_sub(hole) & mask {
                self.keys[hole] = self.keys[c];
                self.vals[hole] = self.vals[c].take();
                hole = c;
            }
            c = (c + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        value
    }

    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.vals[self.cell_of(id)?].as_ref()
    }

    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let c = self.cell_of(id)?;
        self.vals[c].as_mut()
    }

    pub fn contains(&self, id: u64) -> bool {
        self.cell_of(id).is_some()
    }

    /// Iterate over live `(id, &value)` pairs in id order. Sorts the live
    /// entries; meant for drain/validation paths, not the per-event path.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let mut live: Vec<(u64, &T)> = (self.keys.iter().zip(&self.vals))
            .filter_map(|(&id, v)| Some((u64::from(id), v.as_ref()?)))
            .collect();
        live.sort_unstable_by_key(|e| e.0);
        live.into_iter()
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
        assert_eq!(t.get(3), None);
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
        assert!(!t.contains(u64::MAX));
    }

    #[test]
    fn cells_follow_the_live_ids_not_the_largest() {
        let mut t = MsgTable::new();
        for id in 0..100_000u64 {
            t.insert(id, id * 2);
            t.remove(id);
        }
        // Every insert vacated its cell before the next one: the table
        // never needed more than its first allocation.
        assert_eq!(t.keys.len(), MIN_CELLS);
        assert_eq!(t.len(), 0);
    }

    /// Ids that share their low bits (one source's `seq × 64 + src`)
    /// and ids that collide on their home cell both come back out, and
    /// a removal in the middle of a run leaves the rest reachable.
    #[test]
    fn runs_survive_removal_from_their_middle() {
        let mut t = MsgTable::new();
        let ids: Vec<u64> = (0..40u64).map(|s| s * 64 + 5).collect();
        for &id in &ids {
            t.insert(id, id);
        }
        for &id in ids.iter().step_by(3) {
            assert_eq!(t.remove(id), Some(id));
        }
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(t.get(id), (k % 3 != 0).then_some(&id), "id {id}");
        }
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

    #[test]
    #[should_panic(expected = "out of the u32 id range")]
    fn an_id_past_u32_panics() {
        MsgTable::new().insert(u64::from(u32::MAX), ());
    }
}
