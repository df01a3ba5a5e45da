//! Whether the optimizer fuses operator pipelines.
//!
//! Fusion is a *plan-time* decision — the `fuse` pass (see
//! [`crate::mil::opt`]) collapses provably-fusable producer/consumer
//! statement chains into one fused-pipeline statement the interpreter
//! executes morsel-at-a-time. It is always on; [`with_fuse`] scopes it off
//! on one thread so the optimizer reproduces the unfused emission statement
//! for statement — the oracle the acceptance suite diffs fused plans
//! against (the plan cache keys on the setting).

thread_local! {
    static OVERRIDE: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// The effective setting: the scoped override of [`with_fuse`] if set, else
/// on.
pub fn fuse_enabled() -> bool {
    OVERRIDE.with(|c| c.get()).unwrap_or(true)
}

/// Run `f` with pipeline fusion scoped on or off on this thread. Restores
/// the previous setting on exit — panic-safe — so concurrent tests can
/// sweep both legs without racing (the same contract as
/// [`crate::enc::with_enc`]).
pub fn with_fuse<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.get());
    let _restore = Restore(prev);
    OVERRIDE.with(|c| c.set(Some(enabled)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_scopes_and_restores() {
        let ambient = fuse_enabled();
        with_fuse(false, || {
            assert!(!fuse_enabled());
            with_fuse(true, || assert!(fuse_enabled()));
            assert!(!fuse_enabled());
        });
        assert_eq!(fuse_enabled(), ambient);
    }
}
