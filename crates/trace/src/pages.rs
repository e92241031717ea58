//! Columns that grow a fixed-size page at a time.
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

use std::ops::{Index, IndexMut};

/// Items in one page.
pub(crate) const PAGE: usize = 1 << 12;

/// An append-only column in pages of [`PAGE`] items, indexed like a
/// slice. [`Pages::clear`] keeps the pages for the next fill;
/// [`Pages::take_vec`] hands the column over in one exact-size `Vec`,
/// freeing each page as it is copied.
#[derive(Clone, Debug)]
pub(crate) struct Pages<T> {
    pages: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages {
            pages: Vec::new(),
            len: 0,
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
            self.pages.push(Vec::with_capacity(PAGE));
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
        self.pages.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }

    pub(crate) fn get(&self, i: usize) -> Option<T> {
        self.pages.get(i / PAGE)?.get(i % PAGE).copied()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut().flatten()
    }

    pub(crate) fn into_vec(self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len);
        for page in self.pages {
            v.extend_from_slice(&page);
        }
        v
    }

    /// [`Pages::into_vec`], leaving the column empty and pageless.
    pub(crate) fn take_vec(&mut self) -> Vec<T> {
        std::mem::take(self).into_vec()
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
        assert_eq!(p.take_vec(), want);
        assert_eq!(p.len(), 0);
    }
}
