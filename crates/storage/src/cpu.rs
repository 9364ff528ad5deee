//! Run-time CPU dispatch for the estimation hot loops.
//!
//! The workspace is built for baseline x86-64: SSE2, two `f64` lanes, no
//! `popcnt`. The loops that dominate estimation — BayesNet propagation, the
//! per-predicate filter scans, the factor join — are each compiled twice
//! from one source by [`crate::dispatch!`]: once for that baseline, and once
//! with the AVX2 tier's features enabled, so the compiler can use four
//! `f64` lanes, variable shifts, `popcnt` and `tzcnt`. The copy is chosen
//! per call by [`fast_kernels`], which asks the running CPU once. Every
//! other target compiles the generic body alone.
//!
//! The feature list leaves out `fma` on purpose: a fused multiply-add rounds
//! once where the generic build rounds twice, so enabling it would move
//! estimates. Without it both copies execute the same IEEE operations in the
//! same order and return the same bits, which the kernel tests check. Only
//! a NaN's payload may differ: IEEE 754 leaves open which NaN an operation
//! on two of them returns, and the compiler may commute operands.

/// Whether the running CPU has every feature the fast kernel copies are
/// compiled for (`avx2`, `bmi1`, `bmi2`, `lzcnt`, `popcnt`). Asked once per
/// process; always `false` off x86-64.
#[inline]
pub fn fast_kernels() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static FAST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *FAST.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("bmi1")
                && std::arch::is_x86_feature_detected!("bmi2")
                && std::arch::is_x86_feature_detected!("lzcnt")
                && std::arch::is_x86_feature_detected!("popcnt")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Declares a kernel compiled twice and chosen at run time.
///
/// ```text
/// dispatch! {
///     /// Docs of the dispatcher.
///     pub(crate) fn kernel(a: &mut [f64], b: &[f64]) -> f64 = kernel_generic, kernel_avx2;
/// }
/// ```
///
/// `kernel_generic` is the caller's `#[inline(always)]` body (a path, so an
/// associated function or method works too); everything the
/// hot loop calls must be `#[inline(always)]` (or small enough to inline) too,
/// so that it is compiled into the copy it runs in. The macro emits
/// `kernel_avx2`, the body compiled with the AVX2 tier's features (x86-64
/// only; callable without `unsafe` only from code with the same features,
/// such as the tests that compare the two copies), and `kernel`, which
/// calls `kernel_avx2` when [`fast_kernels`] says the CPU can run it and
/// `kernel_generic` otherwise. Argument types must not name a lifetime
/// (`'_` is fine).
#[macro_export]
macro_rules! dispatch {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $generic:path, $fast:ident;
    )*) => {$(
        #[doc = concat!("`", stringify!($generic), "` compiled for the AVX2 tier.")]
        ///
        /// # Safety
        ///
        /// The running CPU must have `avx2`, `bmi1`, `bmi2`, `lzcnt` and
        /// `popcnt`, as `fj_storage::cpu::fast_kernels` reports.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
        $vis fn $fast($($arg: $ty),*) $(-> $ret)? {
            $generic($($arg),*)
        }

        $(#[$attr])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::cpu::fast_kernels() {
                // SAFETY: `fast_kernels` confirmed that the running CPU has
                // every feature the fast copy is compiled with.
                return unsafe { $fast($($arg),*) };
            }
            $generic($($arg),*)
        }
    )*};
}
