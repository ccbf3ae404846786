//! Counter sets, each declared once.
//!
//! Every work counter the engine keeps is a distributive aggregate: it
//! merges by field-wise sum and takes a span delta by field-wise
//! difference. So one field table per set ([`EvalStats`],
//! [`KernelStats`], [`NetworkStats`]) drives every surface that shows
//! the counters — the wire codec ([`crate::wire`]), span fields and
//! their wire interning ([`crate::trace::intern_static`]), the profile
//! JSON ([`crate::runtime::PlanNodeStats::to_json`]) and the bench
//! counter rows — instead of each surface naming the fields by hand.
//!
//! [`EvalStats`]: crate::eval::EvalStats
//! [`KernelStats`]: crate::eval::KernelStats
//! [`NetworkStats`]: crate::distributed::NetworkStats

/// Declare a struct of `u64` counters together with its field table:
/// `LEN`, `FIELDS` (declaration order, which is also the wire order),
/// `GATED`, `values`/`from_values`, field-wise `merge`/`minus`,
/// `trace_fields` and `gated_fields`. A field marked `#[gated = false]`
/// is a physical measurement that differs between transports: the bench
/// gate and the closed-form transport cross-checks skip it.
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $(#[gated = $gated:literal])?
                pub $field:ident: u64,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl $name {
            /// Number of counters in the set.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Counter names in declaration order: the wire, span-field
            /// and profile JSON order.
            pub const FIELDS: [&'static str; Self::LEN] = [$(stringify!($field)),*];

            /// Per field of [`Self::FIELDS`], false for a physical
            /// measurement that differs between transports: the bench
            /// gate and the transport cross-checks compare only the rest.
            pub const GATED: [bool; Self::LEN] =
                [$($crate::counters::counter_set!(@gated $($gated)?)),*];

            /// The values in [`Self::FIELDS`] order.
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// The inverse of [`Self::values`].
            pub fn from_values(values: [u64; Self::LEN]) -> Self {
                let [$($field),*] = values;
                $name { $($field),* }
            }

            /// Fold another block into this one (field-wise sum).
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            /// Field-wise difference `self − earlier`: the delta
            /// attributable to a span that snapshotted `earlier` at entry.
            /// Plain subtraction, not saturating, so an inverted snapshot
            /// fails (overflow panic) in debug builds.
            pub fn minus(&self, earlier: &Self) -> Self {
                $name { $($field: self.$field - earlier.$field),* }
            }

            /// The counters as named trace-span fields, in
            /// [`Self::FIELDS`] order.
            pub fn trace_fields(&self) -> [(&'static str, u64); Self::LEN] {
                [$((stringify!($field), self.$field)),*]
            }

            /// The [`Self::GATED`] counters as named fields.
            pub fn gated_fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                self.trace_fields()
                    .into_iter()
                    .zip(Self::GATED)
                    .filter_map(|(field, gated)| gated.then_some(field))
            }
        }
    };
    (@gated) => {
        true
    };
    (@gated $gated:literal) => {
        $gated
    };
}

pub(crate) use counter_set;
