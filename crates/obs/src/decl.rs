//! Typed metric declarations: the one place a family's name, kind,
//! label keys, help text and bucket layout are written down.
//!
//! A crate declares each of its metrics once, as a `&'static` constant
//! in its `metrics` module, and mutates it only through
//! [`Registry::counter_series`](crate::Registry::counter_series) /
//! [`gauge_series`](crate::Registry::gauge_series) /
//! [`histogram_series`](crate::Registry::histogram_series). The
//! declaration's type fixes the kind and the number of labels, so using
//! a counter as a gauge or passing the wrong number of label values does
//! not compile, and two series of one histogram family cannot end up
//! with different buckets.
//!
//! A declaration derefs to and displays as its family name, so by-name
//! reads (`registry.counter_total(metrics::API_REQUESTS)`) take it where
//! they take a `&str`.

use std::fmt;
use std::ops::Deref;

use crate::histogram::default_buckets;
use crate::MetricKind;

/// A counter family with `N` label keys.
#[derive(Debug)]
pub struct CounterDecl<const N: usize> {
    pub(crate) name: &'static str,
    pub(crate) label_keys: [&'static str; N],
    pub(crate) help: &'static str,
}

impl<const N: usize> CounterDecl<N> {
    /// Declares counter family `name`.
    pub const fn new(
        name: &'static str,
        label_keys: [&'static str; N],
        help: &'static str,
    ) -> Self {
        CounterDecl {
            name,
            label_keys,
            help,
        }
    }
}

/// A gauge family with `N` label keys.
#[derive(Debug)]
pub struct GaugeDecl<const N: usize> {
    pub(crate) name: &'static str,
    pub(crate) label_keys: [&'static str; N],
    pub(crate) help: &'static str,
}

impl<const N: usize> GaugeDecl<N> {
    /// Declares gauge family `name`.
    pub const fn new(
        name: &'static str,
        label_keys: [&'static str; N],
        help: &'static str,
    ) -> Self {
        GaugeDecl {
            name,
            label_keys,
            help,
        }
    }
}

/// A histogram family with `N` label keys and one bucket layout.
#[derive(Debug)]
pub struct HistogramDecl<const N: usize> {
    pub(crate) name: &'static str,
    pub(crate) label_keys: [&'static str; N],
    pub(crate) help: &'static str,
    pub(crate) buckets: &'static [f64],
}

impl<const N: usize> HistogramDecl<N> {
    /// Declares histogram family `name` over [`default_buckets`]
    /// (latencies in seconds).
    pub const fn new(
        name: &'static str,
        label_keys: [&'static str; N],
        help: &'static str,
    ) -> Self {
        HistogramDecl {
            name,
            label_keys,
            help,
            buckets: default_buckets(),
        }
    }

    /// The same family over `buckets` (strictly increasing upper
    /// bounds) — e.g. [`count_buckets`](crate::count_buckets) for work
    /// counts.
    pub const fn with_buckets(mut self, buckets: &'static [f64]) -> Self {
        let mut i = 1;
        while i < buckets.len() {
            assert!(
                buckets[i - 1] < buckets[i],
                "bucket bounds must be strictly increasing"
            );
            i += 1;
        }
        self.buckets = buckets;
        self
    }
}

/// One declaration with its kind and label arity erased: the entries of
/// a crate's `metrics::ALL` (see [`declare_metrics!`](crate::declare_metrics)),
/// so the whole metric surface can be enumerated and checked for
/// duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDecl {
    /// Family name.
    pub name: &'static str,
    /// Family kind.
    pub kind: MetricKind,
    /// Label keys, in declaration order.
    pub label_keys: &'static [&'static str],
    /// Help text rendered as the `# HELP` line.
    pub help: &'static str,
}

/// Declares a crate's metrics: each `pub const` exactly as written,
/// plus `pub const ALL: &[MetricDecl]` listing every one of them — so a
/// declaration cannot be missing from the crate's enumerable surface.
///
/// ```
/// dlaas_obs::declare_metrics! {
///     /// Requests served, by kind.
///     pub const REQUESTS: &dlaas_obs::CounterDecl<1> =
///         &dlaas_obs::CounterDecl::new("requests_total", ["kind"], "requests served, by kind");
/// }
/// assert_eq!(ALL[0].name, &**REQUESTS);
/// ```
#[macro_export]
macro_rules! declare_metrics {
    ($($(#[$doc:meta])* pub const $name:ident: $ty:ty = $decl:expr;)*) => {
        $($(#[$doc])* pub const $name: $ty = $decl;)*

        /// Every metric this module declares.
        pub const ALL: &[$crate::MetricDecl] = &[$($name.erased()),*];
    };
}

macro_rules! reads_as_its_name {
    ($decl:ident, $kind:ident) => {
        impl<const N: usize> $decl<N> {
            /// The family name.
            pub const fn name(&self) -> &'static str {
                self.name
            }

            /// This declaration with kind and arity erased.
            pub const fn erased(&'static self) -> MetricDecl {
                MetricDecl {
                    name: self.name,
                    kind: MetricKind::$kind,
                    label_keys: &self.label_keys,
                    help: self.help,
                }
            }
        }

        impl<const N: usize> Deref for $decl<N> {
            type Target = str;

            fn deref(&self) -> &str {
                self.name
            }
        }

        impl<const N: usize> fmt::Display for $decl<N> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name)
            }
        }
    };
}

reads_as_its_name!(CounterDecl, Counter);
reads_as_its_name!(GaugeDecl, Gauge);
reads_as_its_name!(HistogramDecl, Histogram);
