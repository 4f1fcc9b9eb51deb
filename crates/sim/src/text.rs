//! The one append-only text type of the substrates: what an NFS file is
//! — its whole state, no index beside it — and what an object store's
//! textual body views, so a learner's log is held once (`dlaas-sharedfs`,
//! `dlaas-objstore`).

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

/// An append-only text buffer whose contents can be handed out without
/// being copied: [`TextBuf::view`] returns a [`TextView`] of the text
/// appended so far. Later appends extend the buffer in place; every view
/// taken earlier still reads exactly its own prefix, because nothing
/// shrinks or rewrites a buffer a view reads ([`TextBuf::replace`] starts
/// a new one then). This is how a log is shipped (object stores have no
/// append): the NFS file is the buffer, its volume the only writer, and
/// the log collector re-puts a view of it, copying nothing, while the
/// store charges the whole body. Dropping the buffer — its one writer — gives
/// back the room it kept for growth: the views go on reading the same
/// text from a buffer of exactly its length.
///
/// # Examples
///
/// ```
/// use dlaas_sim::TextBuf;
///
/// let log = TextBuf::new();
/// log.push_str("line 1");
/// let first = log.view();
/// log.push_str("\nline 2");
/// assert_eq!(&*first.text(), "line 1");
/// assert_eq!(log.view().len(), 13);
/// ```
#[derive(Debug, Default)]
pub struct TextBuf(Rc<RefCell<String>>);

impl Drop for TextBuf {
    fn drop(&mut self) {
        // Nothing can append any more; a view still reading the text
        // keeps only what was appended. (A view borrowed right now keeps
        // the room: the text cannot move under it.)
        if Rc::strong_count(&self.0) > 1 {
            if let Ok(mut text) = self.0.try_borrow_mut() {
                text.shrink_to_fit();
            }
        }
    }
}

impl From<String> for TextBuf {
    fn from(text: String) -> Self {
        TextBuf(Rc::new(RefCell::new(text)))
    }
}

impl TextBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// `true` while nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `s`.
    ///
    /// # Panics
    ///
    /// Panics if called while a [`TextView::text`] borrow of a view of
    /// this buffer is alive.
    pub fn push_str(&self, s: &str) {
        self.0.borrow_mut().push_str(s);
    }

    /// Replaces the whole text with `s`: in place while no view reads the
    /// buffer, else in a new buffer, the old one left to its views at its
    /// length (as if dropped).
    pub fn replace(&mut self, s: &str) {
        if Rc::strong_count(&self.0) == 1 {
            let mut text = self.0.borrow_mut();
            text.clear();
            text.push_str(s);
        } else {
            *self = s.to_owned().into();
        }
    }

    /// Lends the text appended so far.
    pub fn text(&self) -> Ref<'_, str> {
        Ref::map(self.0.borrow(), String::as_str)
    }

    /// A view of everything appended so far (no copy).
    pub fn view(&self) -> TextView {
        TextView {
            buf: self.0.clone(),
            len: self.len(),
        }
    }
}

/// A prefix of a [`TextBuf`]: the buffer and how much of it this view
/// covers. Equality and `Debug` go by the text viewed.
#[derive(Clone)]
pub struct TextView {
    buf: Rc<RefCell<String>>,
    len: usize,
}

impl TextView {
    /// Bytes viewed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view covers nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lends the text viewed. The borrow must end before the buffer is
    /// appended to again.
    pub fn text(&self) -> Ref<'_, str> {
        Ref::map(self.buf.borrow(), |s| &s[..self.len])
    }

    /// Bytes the buffer holds beyond this view: the room its writer keeps
    /// for growth, and whatever was appended after the view was taken.
    pub fn spare_capacity(&self) -> usize {
        self.buf.borrow().capacity() - self.len
    }
}

impl PartialEq for TextView {
    fn eq(&self, other: &Self) -> bool {
        *self.text() == *other.text()
    }
}

impl Eq for TextView {}

impl fmt::Debug for TextView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replaced_buffer_is_reused_unless_a_view_reads_it() {
        let mut status = TextBuf::new();
        status.push_str("PROCESSING iter=1");
        let buf = Rc::as_ptr(&status.0);
        status.replace("PROCESSING iter=2");
        assert_eq!(Rc::as_ptr(&status.0), buf, "no view: rewritten in place");
        assert_eq!(&*status.text(), "PROCESSING iter=2");

        let seen = status.view();
        status.replace("COMPLETED");
        assert_ne!(Rc::as_ptr(&status.0), buf, "a view reads the old one");
        assert_eq!(&*seen.text(), "PROCESSING iter=2");
        assert_eq!(seen.spare_capacity(), 0, "left to its view at its length");
        assert_eq!(status.view(), TextBuf::from("COMPLETED".to_owned()).view());
        assert_eq!(format!("{seen:?}"), "\"PROCESSING iter=2\"");
    }
}
