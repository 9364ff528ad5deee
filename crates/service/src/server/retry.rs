//! Client-side retry policy: jittered exponential backoff plus the
//! retryable-vs-fatal classification, as **pure functions** — no sockets,
//! no clocks, no global state — so the whole policy is testable (and
//! reproducible) in isolation. [`super::FjClient::call`] is the one place
//! that acts on it.
//!
//! Retrying an estimate is always safe: estimation is read-only, so an
//! idempotent resend can at worst waste work, never corrupt state.

use crate::request::RejectReason;
use std::io;
use std::time::Duration;

/// When and how long to back off between retries of one logical call.
///
/// Attempt `n` (0-based) backs off for `min(base_backoff · 2ⁿ,
/// max_backoff)` scaled by a deterministic jitter factor in `[0.5, 1.0)`
/// drawn from `seed` — jitter stops a herd of clients that failed together
/// from retrying together, and seeding it keeps test schedules exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt; 0 disables retrying entirely.
    pub max_retries: u32,
    /// Backoff before the first retry (doubles each further retry).
    pub base_backoff: Duration,
    /// Ceiling the exponential schedule saturates at.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (same seed, same schedule).
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure is final. The default for
    /// [`super::FjClient::connect`], so admission-control verdicts stay
    /// visible to callers that want to see them.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// `max_retries` retries with a 25 ms base backoff capped at 1 s.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            seed: 0x5eed_f0ed,
        }
    }

    /// Overrides the base backoff.
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Overrides the backoff ceiling.
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Overrides the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff before retry `attempt` (0-based), or `None` when the
    /// policy says give up. Pure: same policy, same attempt, same answer.
    pub fn backoff(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        // 2^attempt saturates well below overflow; past 2^20 the cap has
        // long since taken over anyway.
        let uncapped = self.base_backoff.saturating_mul(1u32 << attempt.min(20));
        Some(uncapped.min(self.max_backoff).mul_f64(self.jitter(attempt)))
    }

    /// Deterministic jitter factor in `[0.5, 1.0)` for `attempt`.
    fn jitter(&self, attempt: u32) -> f64 {
        let mut state = self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let frac = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        0.5 + frac / 2.0
    }

    /// Whether a server rejection is worth retrying.
    ///
    /// | reason | verdict | why |
    /// |---|---|---|
    /// | `Overloaded` | retry | transient shed; backoff is the whole point |
    /// | `QuotaExceeded` | fatal | resending grows the very backlog that tripped it |
    /// | `ShuttingDown` | fatal | this replica is draining; fail over, don't wait |
    /// | `UnknownDataset` | fatal | a config bug; no retry fixes it |
    /// | `ResponseTooLarge` | fatal | same batch, same size; split it instead |
    /// | `DeadlineExceeded` | fatal | the budget is spent; a retry has none left |
    pub fn is_retryable_rejection(reason: RejectReason) -> bool {
        matches!(reason, RejectReason::Overloaded)
    }

    /// Whether a transport error is worth a reconnect-and-resend. Timeouts
    /// and dropped/refused connections are; protocol violations
    /// (`InvalidData` — a corrupt or incompatible peer) are not.
    pub fn is_retryable_io(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::TimedOut
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::ConnectionRefused
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::NotConnected
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::Interrupted
        )
    }
}

/// The `splitmix64` PRNG step: advances `state` and returns the next
/// pseudo-random value — the generator behind retry jitter and the wire
/// codec's seeded fuzz, so a seed means the same stream in both.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_deterministic_and_seed_sensitive() {
        let mut a = 42u64;
        let mut b = 42u64;
        let seq_a: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same stream");
        let mut c = 43u64;
        let seq_c: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different stream");
        // Known-good first output for seed 0 (reference splitmix64).
        let mut zero = 0u64;
        assert_eq!(splitmix64(&mut zero), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn gives_up_after_exactly_max_retries() {
        let policy = RetryPolicy::retries(3);
        assert!(policy.backoff(0).is_some());
        assert!(policy.backoff(1).is_some());
        assert!(policy.backoff(2).is_some());
        assert_eq!(policy.backoff(3), None);
        assert_eq!(policy.backoff(100), None);
        assert_eq!(RetryPolicy::none().backoff(0), None, "none() never retries");
    }

    #[test]
    fn schedule_doubles_within_jitter_bounds_until_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(160);
        let policy = RetryPolicy::retries(12)
            .with_base_backoff(base)
            .with_max_backoff(cap);
        for attempt in 0..12u32 {
            let delay = policy.backoff(attempt).unwrap();
            let nominal = base.saturating_mul(1 << attempt.min(20)).min(cap);
            assert!(
                delay >= nominal.mul_f64(0.5) && delay < nominal,
                "attempt {attempt}: {delay:?} outside [{:?}, {nominal:?})",
                nominal.mul_f64(0.5),
            );
        }
        // Deep attempts saturate at the cap (never overflow, never exceed).
        let deep = policy.backoff(11).unwrap();
        assert!(deep < cap && deep >= cap.mul_f64(0.5));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_attempts() {
        let a = RetryPolicy::retries(8).with_seed(7);
        let b = RetryPolicy::retries(8).with_seed(7);
        let schedule_a: Vec<_> = (0..8).map(|n| a.backoff(n)).collect();
        let schedule_b: Vec<_> = (0..8).map(|n| b.backoff(n)).collect();
        assert_eq!(schedule_a, schedule_b, "same seed, same schedule");

        let other = RetryPolicy::retries(8).with_seed(8);
        let schedule_other: Vec<_> = (0..8).map(|n| other.backoff(n)).collect();
        assert_ne!(schedule_a, schedule_other, "seed changes the schedule");

        // Fixed-point jitter sanity: factors spread across [0.5, 1.0), not
        // stuck at one value (compare two capped attempts, same nominal).
        let capped = RetryPolicy::retries(20)
            .with_base_backoff(Duration::from_millis(100))
            .with_max_backoff(Duration::from_millis(100));
        assert_ne!(capped.backoff(10), capped.backoff(11));
    }

    #[test]
    fn rejection_classification_table() {
        use RejectReason::*;
        let table = [
            (Overloaded, true),
            (QuotaExceeded, false),
            (ShuttingDown, false),
            (UnknownDataset, false),
            (ResponseTooLarge, false),
            (DeadlineExceeded, false),
        ];
        for (reason, retryable) in table {
            assert_eq!(
                RetryPolicy::is_retryable_rejection(reason),
                retryable,
                "{reason:?}"
            );
        }
    }

    #[test]
    fn io_classification_table() {
        use io::ErrorKind::*;
        for kind in [
            TimedOut,
            WouldBlock,
            ConnectionReset,
            ConnectionAborted,
            ConnectionRefused,
            BrokenPipe,
            NotConnected,
            UnexpectedEof,
            Interrupted,
        ] {
            assert!(RetryPolicy::is_retryable_io(kind), "{kind:?} is transient");
        }
        for kind in [
            InvalidData,
            InvalidInput,
            PermissionDenied,
            AddrInUse,
            NotFound,
        ] {
            assert!(!RetryPolicy::is_retryable_io(kind), "{kind:?} is fatal");
        }
    }
}
