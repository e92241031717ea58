//! Columns that grow a fixed-size page at a time, and give pages back
//! once what they hold is done with.
//!
//! A capture does not know how many messages it will record, and a pass
//! fed by a running capture does not know how many it will replay. A
//! `Vec` doubles to find out: it copies what it holds and leaves each
//! outgrown block behind, and the allocator keeps those blocks resident
//! without being able to place the next, larger one in them — a loop
//! that grew a log's worth of columns that way per iteration held tens
//! of MiB more than it used. A [`Pages`] column is never copied or
//! outgrown, and every page of every column of one element type is the
//! same size, so the next capture's pages are this one's.
//!
//! Some columns are bookkeeping for messages in flight: once every id
//! on a page is done with, nothing reads the page again. Such a column
//! retires its pages from the front ([`Pages::retire_to`], as a
//! [`Frontier`] counts them done) onto its own free list, and its next
//! page comes off that list: it holds a window of pages, not the run.

use std::ops::{Index, IndexMut};

/// Items in one page.
pub(crate) const PAGE: usize = 1 << 12;

/// An append-only column in pages of [`PAGE`] items, indexed like a
/// slice. [`Pages::clear`] keeps the pages for the next fill;
/// [`Pages::into_vec`] hands the column over in one exact-size `Vec`,
/// freeing each page as it is copied.
///
/// A retired page is an empty `Vec`, so indexing into it panics, and
/// [`Pages::get`] answers `None`: a column never hands back an item of
/// a page it has recycled.
#[derive(Clone, Debug)]
pub(crate) struct Pages<T> {
    pages: Vec<Vec<T>>,
    len: usize,
    /// Pages at the front that have been retired.
    retired: usize,
    /// Retired pages, emptied, for the tail to reuse.
    free: Vec<Vec<T>>,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages {
            pages: Vec::new(),
            len: 0,
            retired: 0,
            free: Vec::new(),
        }
    }
}

impl<T: Copy> Pages<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The page the next item goes in.
    fn tail(&mut self) -> &mut Vec<T> {
        let p = self.len / PAGE;
        if p == self.pages.len() {
            let page = self.free.pop().unwrap_or_else(|| Vec::with_capacity(PAGE));
            self.pages.push(page);
        }
        &mut self.pages[p]
    }

    pub(crate) fn push(&mut self, v: T) {
        self.tail().push(v);
        self.len += 1;
    }

    /// Append `fill` until the column holds `len` items.
    pub(crate) fn resize(&mut self, len: usize, fill: T) {
        debug_assert!(len >= self.len, "a paged column only grows");
        while self.len < len {
            let want = len - self.len;
            let page = self.tail();
            let add = (PAGE - page.len()).min(want);
            page.resize(page.len() + add, fill);
            self.len += add;
        }
    }

    /// Empty the column, keeping its pages.
    pub(crate) fn clear(&mut self) {
        for mut page in self.pages.drain(..).filter(|p| p.capacity() > 0) {
            page.clear();
            self.free.push(page);
        }
        self.len = 0;
        self.retired = 0;
    }

    /// Retire every page below page `pages`: each goes on the free list,
    /// and any later read of an item on it panics. Only whole pages
    /// retire: the tail page stays.
    pub(crate) fn retire_to(&mut self, pages: usize) {
        debug_assert!(pages <= self.len / PAGE, "only a whole page retires");
        while self.retired < pages {
            let mut page = std::mem::take(&mut self.pages[self.retired]);
            page.clear();
            self.free.push(page);
            self.retired += 1;
        }
    }

    /// Pages the column owns, in use or on its free list: the most it
    /// has held at once since it was made.
    pub(crate) fn owned(&self) -> usize {
        self.pages.iter().filter(|p| p.capacity() > 0).count() + self.free.len()
    }

    /// Whether item `i` sat on a page that has retired.
    #[inline]
    pub(crate) fn retired(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "item {i} past the column's end");
        i / PAGE < self.retired
    }

    pub(crate) fn get(&self, i: usize) -> Option<T> {
        self.pages.get(i / PAGE)?.get(i % PAGE).copied()
    }

    pub(crate) fn into_vec(self) -> Vec<T> {
        assert_eq!(self.retired, 0, "a column with retired pages read whole");
        let mut v = Vec::with_capacity(self.len);
        for page in self.pages {
            v.extend_from_slice(&page);
        }
        v
    }
}

impl<T> Index<usize> for Pages<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.pages[i / PAGE][i % PAGE]
    }
}

impl<T> IndexMut<usize> for Pages<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i / PAGE][i % PAGE]
    }
}

/// Which pages of ids are done with, from the front: ids are counted
/// done one at a time, in any order, each once, and the frontier is the
/// number of pages at the front whose every id is done — the pages a
/// column of those ids may retire.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frontier {
    /// Ids done per page, from page `front` on.
    done: std::collections::VecDeque<u32>,
    front: usize,
}

impl Frontier {
    /// Start over at id 0.
    pub(crate) fn clear(&mut self) {
        self.done.clear();
        self.front = 0;
    }

    /// Pages whose every id is done, counted from the front.
    pub(crate) fn front(&self) -> usize {
        self.front
    }

    /// Id `i` is done with.
    #[inline]
    pub(crate) fn done(&mut self, i: usize) {
        let k = (i / PAGE)
            .checked_sub(self.front)
            .expect("an id on a page already done with");
        if k >= self.done.len() {
            self.done.resize(k + 1, 0);
        }
        self.done[k] += 1;
        while self.done.front() == Some(&(PAGE as u32)) {
            self.done.pop_front();
            self.front += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_read_back_as_the_vec_they_were_fed() {
        let mut p = Pages::default();
        let mut want = Vec::new();
        for round in 0..2 {
            p.clear();
            want.clear();
            for k in 0..3 * PAGE as u32 + 5 {
                p.push(k);
                want.push(k);
            }
            p.resize(want.len() + 7, 9);
            want.resize(want.len() + 7, 9);
            p[PAGE + 1] = 77;
            want[PAGE + 1] = 77;
            assert_eq!(p.len(), want.len(), "round {round}");
            assert!((0..want.len()).all(|i| p[i] == want[i] && p.get(i) == Some(want[i])));
            assert_eq!(p.get(want.len()), None);
        }
        assert_eq!(p.into_vec(), want);
    }

    /// A column that retires its front holds a window of pages: the
    /// tail takes the retired ones back, and a retired item reads as
    /// gone, never as what its page holds now.
    #[test]
    fn retired_pages_come_back_at_the_tail() {
        let mut p = Pages::default();
        let mut ids = Frontier::default();
        for k in 0..10 * PAGE {
            p.push(k as u32);
            if k >= PAGE {
                ids.done(k - PAGE);
            }
            p.retire_to(ids.front());
            assert!(p.pages.iter().filter(|pg| pg.capacity() > 0).count() <= 2);
        }
        assert_eq!(ids.front(), 9);
        assert!(p.retired(9 * PAGE - 1) && !p.retired(9 * PAGE));
        assert_eq!(p.get(PAGE), None);
        assert_eq!(p[9 * PAGE + 3], 9 * PAGE as u32 + 3);
        p.clear();
        assert_eq!((p.free.len(), p.retired), (2, 0));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn reading_a_retired_page_panics() {
        let mut p = Pages::default();
        p.resize(2 * PAGE, 1u8);
        p.retire_to(1);
        let _ = p[5];
    }

    /// The frontier moves over a page only once every id on it and on
    /// every page before it is done, whatever order they finish in.
    #[test]
    fn the_frontier_waits_for_a_straggler() {
        let mut f = Frontier::default();
        for i in (1..3 * PAGE).rev() {
            f.done(i);
        }
        assert_eq!(f.front(), 0, "id 0 holds every page");
        f.done(0);
        assert_eq!(f.front(), 3);
    }
}
