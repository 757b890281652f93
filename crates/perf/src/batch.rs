//! Feature description of one serving iteration.
//!
//! Chunked-prefill engines execute *mixed batches*: at most a few prefill
//! chunks plus every in-flight decode (§2.1). [`BatchProfile`] captures the
//! quantities that determine that iteration's latency — and nothing else —
//! so the same struct serves as the analytical model's input, the random
//! forest's feature source, and the profiler's sample space.

/// One prefill chunk scheduled in an iteration.
///
/// `context_before` is the number of prompt tokens of the same request that
/// were already processed in earlier iterations; prefill attention cost for
/// this chunk grows with it (this is what Medha's shrinking-chunk policy
/// reacts to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefillChunkProfile {
    /// Number of prompt tokens processed in this chunk.
    pub chunk_tokens: u32,
    /// Prompt tokens of this request already in the KV cache.
    pub context_before: u32,
}

impl PrefillChunkProfile {
    /// Creates a chunk profile.
    pub fn new(chunk_tokens: u32, context_before: u32) -> Self {
        PrefillChunkProfile {
            chunk_tokens,
            context_before,
        }
    }

    /// The quadratic attention work term for this chunk:
    /// `chunk * (context_before + chunk / 2)` token-pairs (causal).
    pub fn attention_pairs(&self) -> u64 {
        self.chunk_tokens as u64 * (self.context_before as u64 + self.chunk_tokens as u64 / 2)
    }
}

/// The latency-relevant description of one mixed prefill+decode batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchProfile {
    /// Prefill chunks in this iteration (usually zero or one; QoServe's
    /// dynamic chunking may pull tokens from several queued requests).
    pub prefill: Vec<PrefillChunkProfile>,
    /// Number of requests in decode phase (each contributes one token).
    pub num_decodes: u32,
    /// Total KV-cache tokens read by the decode attention (sum of the
    /// context lengths of all decoding requests).
    pub decode_context_total: u64,
}

impl BatchProfile {
    /// Starts building a profile.
    pub fn builder() -> BatchProfileBuilder {
        BatchProfileBuilder::default()
    }

    /// Total prefill tokens across all chunks.
    pub fn prefill_tokens(&self) -> u32 {
        self.prefill.iter().map(|c| c.chunk_tokens).sum()
    }

    /// Total tokens fed through the model's linear layers this iteration
    /// (prefill tokens plus one token per decode).
    pub fn total_tokens(&self) -> u32 {
        self.prefill_tokens() + self.num_decodes
    }

    /// Sum of per-chunk quadratic attention terms.
    pub fn prefill_attention_pairs(&self) -> u64 {
        self.prefill.iter().map(|c| c.attention_pairs()).sum()
    }

    /// True when the batch does no work at all.
    pub fn is_empty(&self) -> bool {
        self.prefill.is_empty() && self.num_decodes == 0
    }

    /// The feature vector consumed by the random forest, in a fixed order:
    /// `[prefill_tokens, prefill_attention_pairs, num_decodes,
    /// decode_context_total]`.
    pub fn features(&self) -> [f64; 4] {
        [
            self.prefill_tokens() as f64,
            self.prefill_attention_pairs() as f64,
            self.num_decodes as f64,
            self.decode_context_total as f64,
        ]
    }
}

/// Builder for [`BatchProfile`].
///
/// # Example
///
/// ```
/// use qoserve_perf::BatchProfile;
///
/// let batch = BatchProfile::builder()
///     .prefill_chunk(256, 1024)   // 256-token chunk, 1024 tokens already done
///     .prefill_chunk(128, 0)      // second chunk from a fresh request
///     .decodes(16, 16 * 900)      // 16 decodes with 900 tokens context each
///     .build();
/// assert_eq!(batch.prefill_tokens(), 384);
/// assert_eq!(batch.total_tokens(), 400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchProfileBuilder {
    profile: BatchProfile,
}

impl BatchProfileBuilder {
    /// Adds one prefill chunk of `chunk_tokens`, with `context_before`
    /// prompt tokens of the same request already processed.
    pub fn prefill_chunk(mut self, chunk_tokens: u32, context_before: u32) -> Self {
        if chunk_tokens > 0 {
            self.profile
                .prefill
                .push(PrefillChunkProfile::new(chunk_tokens, context_before));
        }
        self
    }

    /// Sets the decode side: `num` decoding requests whose context lengths
    /// sum to `context_total`.
    pub fn decodes(mut self, num: u32, context_total: u64) -> Self {
        self.profile.num_decodes = num;
        self.profile.decode_context_total = context_total;
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> BatchProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile() {
        let b = BatchProfile::default();
        assert!(b.is_empty());
        assert_eq!(b.total_tokens(), 0);
        assert_eq!(b.features(), [0.0; 4]);
    }

    #[test]
    fn builder_accumulates_chunks() {
        let b = BatchProfile::builder()
            .prefill_chunk(100, 0)
            .prefill_chunk(50, 200)
            .decodes(4, 4000)
            .build();
        assert_eq!(b.prefill_tokens(), 150);
        assert_eq!(b.total_tokens(), 154);
        assert_eq!(b.num_decodes, 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn zero_token_chunks_are_dropped() {
        let b = BatchProfile::builder().prefill_chunk(0, 500).build();
        assert!(b.prefill.is_empty());
    }

    #[test]
    fn attention_pairs_grow_with_context() {
        let fresh = PrefillChunkProfile::new(512, 0);
        let deep = PrefillChunkProfile::new(512, 8192);
        assert!(deep.attention_pairs() > fresh.attention_pairs());
        assert_eq!(fresh.attention_pairs(), 512 * 256);
        assert_eq!(deep.attention_pairs(), 512 * (8192 + 256));
    }

    #[test]
    fn feature_vector_order_is_stable() {
        let b = BatchProfile::builder()
            .prefill_chunk(256, 512)
            .decodes(8, 9000)
            .build();
        let f = b.features();
        assert_eq!(f[0], 256.0);
        assert_eq!(f[1], (256u64 * (512 + 128)) as f64);
        assert_eq!(f[2], 8.0);
        assert_eq!(f[3], 9000.0);
    }
}
