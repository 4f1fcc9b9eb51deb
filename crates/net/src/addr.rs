//! Network addresses.

use std::fmt;
use std::rc::Rc;

/// The address of a network endpoint.
///
/// Addresses are opaque strings by convention structured as
/// `"<node>/<process>"` (e.g. `"node-2/etcd-0"`, `"node-0/api-1"`), but the
/// network layer itself attaches no meaning to the structure.
///
/// An address is an immutable shared string: every message carries two,
/// so `clone` is a reference-count bump, not an allocation. Components
/// build their own and their peers' addresses once and clone them per
/// message. The simulation is single-threaded, hence `Rc`; a campaign
/// result that leaves its trial's thread carries `as_str().to_owned()`.
///
/// # Examples
///
/// ```
/// use dlaas_net::Addr;
///
/// let a = Addr::new("node-1/api-0");
/// assert_eq!(a.as_str(), "node-1/api-0");
/// assert_eq!(a, Addr::from("node-1/api-0"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(Rc<str>);

impl Addr {
    /// Creates an address from any string-like value.
    pub fn new(s: impl AsRef<str>) -> Self {
        Addr(Rc::from(s.as_ref()))
    }

    /// The address as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Addr {
    fn from(s: &str) -> Self {
        Addr::new(s)
    }
}

impl From<String> for Addr {
    fn from(s: String) -> Self {
        Addr(Rc::from(s))
    }
}

impl AsRef<str> for Addr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Addr::new("x/y");
        assert_eq!(a, Addr::from("x/y".to_string()));
        assert_eq!(a.as_str(), "x/y");
        assert_eq!(format!("{a}"), "x/y");
        assert_ne!(a, Addr::new("x/z"));
    }

    #[test]
    fn usable_as_map_key() {
        #[expect(
            clippy::disallowed_types,
            reason = "proves Addr's Hash impl works; the hashed map never iterates, \
                      so determinism is not at stake"
        )]
        let mut m = std::collections::HashMap::new();
        m.insert(Addr::new("a"), 1);
        assert_eq!(m.get(&Addr::new("a")), Some(&1));
    }
}
