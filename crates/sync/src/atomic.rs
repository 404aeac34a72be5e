//! Shim atomics: the workspace-wide import point for atomic types.
//!
//! In normal builds this module *re-exports* `std::sync::atomic` — the
//! types are the std types, so the cost is zero by construction. Under
//! `RUSTFLAGS="--cfg model"` the integer/bool atomics are replaced by
//! newtype wrappers that report every access to the model scheduler
//! (`staged_sync::model`) as a schedule point, letting the checker explore
//! interleavings around lock-free code too.
//!
//! The xtask lint bans `use std::sync::atomic` outside `crates/sync`
//! (rule `raw_atomic`); library code imports from here instead:
//!
//! ```
//! use staged_sync::atomic::{AtomicUsize, Ordering};
//!
//! let n = AtomicUsize::new(0);
//! n.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed)
//! assert_eq!(n.load(Ordering::Acquire), 1);
//! ```
//!
//! Model-mode caveat: the wrappers serialize every access (the
//! scheduler runs one thread at a time), so they behave as
//! sequentially consistent regardless of the `Ordering` argument.
//! Weak-memory reorderings are *not* modeled — that is ThreadSanitizer's
//! job (CI `tsan`); the model checker explores interleavings, not
//! memory models.

#[cfg(not(model))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};

#[cfg(model)]
pub use self::modeled::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize};
#[cfg(model)]
pub use std::sync::atomic::Ordering;

#[cfg(model)]
mod modeled {
    use crate::model;
    use std::sync::atomic::Ordering;

    macro_rules! model_int_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Model-mode wrapper: every access is a schedule point.
            #[derive(Debug, Default)]
            pub struct $name($std);

            impl $name {
                /// Creates a new atomic (const, like std).
                pub const fn new(v: $prim) -> Self {
                    $name(<$std>::new(v))
                }

                /// Loads the value (schedule point).
                pub fn load(&self, order: Ordering) -> $prim {
                    model::atomic_op(concat!(stringify!($name), ".load"));
                    self.0.load(order)
                }

                /// Stores a value (schedule point).
                pub fn store(&self, v: $prim, order: Ordering) {
                    model::atomic_op(concat!(stringify!($name), ".store"));
                    self.0.store(v, order)
                }

                /// Swaps the value (schedule point).
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    model::atomic_op(concat!(stringify!($name), ".swap"));
                    self.0.swap(v, order)
                }

                /// Adds, returning the previous value (schedule point).
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    model::atomic_op(concat!(stringify!($name), ".fetch_add"));
                    self.0.fetch_add(v, order)
                }

                /// Subtracts, returning the previous value (schedule
                /// point).
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    model::atomic_op(concat!(stringify!($name), ".fetch_sub"));
                    self.0.fetch_sub(v, order)
                }

                /// Maximum, returning the previous value (schedule
                /// point).
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    model::atomic_op(concat!(stringify!($name), ".fetch_max"));
                    self.0.fetch_max(v, order)
                }

                /// Compare-and-exchange (schedule point).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    model::atomic_op(concat!(stringify!($name), ".compare_exchange"));
                    self.0.compare_exchange(current, new, success, failure)
                }

                /// Mutable access (no schedule point: `&mut` proves
                /// exclusivity).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.0.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.0.into_inner()
                }
            }

            impl From<$prim> for $name {
                fn from(v: $prim) -> Self {
                    $name::new(v)
                }
            }
        };
    }

    model_int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    model_int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_int_atomic!(AtomicI64, std::sync::atomic::AtomicI64, i64);
    model_int_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);

    /// Model-mode wrapper: every access is a schedule point.
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// Creates a new atomic bool (const, like std).
        pub const fn new(v: bool) -> Self {
            AtomicBool(std::sync::atomic::AtomicBool::new(v))
        }

        /// Loads the value (schedule point).
        pub fn load(&self, order: Ordering) -> bool {
            model::atomic_op("AtomicBool.load");
            self.0.load(order)
        }

        /// Stores a value (schedule point).
        pub fn store(&self, v: bool, order: Ordering) {
            model::atomic_op("AtomicBool.store");
            self.0.store(v, order)
        }

        /// Swaps the value (schedule point).
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            model::atomic_op("AtomicBool.swap");
            self.0.swap(v, order)
        }

        /// Compare-and-exchange (schedule point).
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            model::atomic_op("AtomicBool.compare_exchange");
            self.0.compare_exchange(current, new, success, failure)
        }

        /// Mutable access (no schedule point).
        pub fn get_mut(&mut self) -> &mut bool {
            self.0.get_mut()
        }

        /// Consumes the atomic, returning the value.
        pub fn into_inner(self) -> bool {
            self.0.into_inner()
        }
    }

    impl From<bool> for AtomicBool {
        fn from(v: bool) -> Self {
            AtomicBool::new(v)
        }
    }
}
