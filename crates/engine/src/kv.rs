//! Token-granular KV-cache accounting.
//!
//! QoServe never preempts decoding requests (§3.4) — once a request enters
//! the decode phase its KV must stay resident until completion. The cache
//! therefore holds, per admitted request, its written prompt tokens plus
//! its whole future decode growth (`decode_tokens − 1` tokens, one per
//! decode step after the first token), reserved at admission. New prefill
//! work is admitted only against `capacity − held`, so a decode can always
//! grow, and a decode step itself changes nothing: it writes a token the
//! reservation already holds.
//!
//! The cache keeps only the total. The engine's in-flight requests are
//! the per-request ledger: a completing request releases its
//! `prefill_done` plus its reserve, read from its own record.

/// KV-cache budget of one replica, in tokens.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    capacity: u64,
    held: u64,
}

impl KvCache {
    /// Creates a cache holding `capacity_tokens` KV tokens.
    pub fn new(capacity_tokens: u64) -> Self {
        KvCache {
            capacity: capacity_tokens,
            held: 0,
        }
    }

    /// Total capacity in tokens.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Tokens held: written prompt tokens plus reserved decode growth.
    pub fn held(&self) -> u64 {
        self.held
    }

    /// Tokens available for *new* prefill admission.
    pub fn headroom(&self) -> u64 {
        self.capacity.saturating_sub(self.held)
    }

    /// Holds `tokens` more: a decode reserve at admission or a prefill
    /// chunk. The caller must have checked [`headroom`](Self::headroom);
    /// over-subscription is still tracked so invariants stay auditable.
    pub fn hold(&mut self, tokens: u64) {
        self.held += tokens;
    }

    /// Releases `tokens` held by a request leaving the cache.
    pub fn release(&mut self, tokens: u64) {
        self.held -= tokens;
    }

    /// Releases everything at once, keeping the capacity. Models a
    /// replica crash: the cache contents die with the process.
    pub fn clear(&mut self) {
        self.held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accounting() {
        let mut kv = KvCache::new(10_000);
        assert_eq!(kv.headroom(), 10_000);
        kv.hold(500); // decode reserve at admission
        assert_eq!(kv.headroom(), 9_500);
        kv.hold(2_000); // a prefill chunk
        assert_eq!(kv.held(), 2_500);
        assert_eq!(kv.headroom(), 7_500);
    }

    #[test]
    fn release_returns_everything() {
        let mut kv = KvCache::new(5_000);
        kv.hold(200 + 1_000);
        kv.hold(300 + 500);
        kv.release(200 + 1_000);
        assert_eq!(kv.held(), 800);
        kv.release(300 + 500);
        assert_eq!(kv.headroom(), 5_000);
    }

    #[test]
    fn clear_releases_everything_but_keeps_capacity() {
        let mut kv = KvCache::new(5_000);
        kv.hold(1_200);
        kv.hold(500);
        kv.clear();
        assert_eq!(kv.held(), 0);
        assert_eq!(kv.capacity(), 5_000);
        assert_eq!(kv.headroom(), 5_000);
    }
}
