//! Application traffic sources.
//!
//! The evaluation scenarios of the paper use: backlogged bulk transfers
//! (iPerf), constant-bitrate interactive streams with bitrate switches
//! (Fig. 1/13), short request/response flows (Fig. 10b/12), and bursty
//! sources (Fig. 10c). CBR and one-shot flows (Fig. 10c's bursts too) are
//! precomputed event schedules on [`crate::Sim`]; the backlogged bulk
//! source needs feedback (refill when the sending queue drains), so its
//! state lives on the [`crate::Connection`] it feeds.

use crate::time::{SimTime, MILLIS};

/// State of a backlogged bulk sender (iPerf-style): keeps the sending
/// queue topped up to a low watermark until `remaining` is exhausted.
#[derive(Debug, Clone)]
pub struct BulkState {
    /// Bytes not yet handed to the transport.
    pub remaining: u64,
    /// Packet property for enqueued data.
    pub prop: u32,
    /// Refill threshold in bytes: refill when `Q` holds less.
    pub low_watermark: u64,
    /// Poll interval.
    pub interval: SimTime,
}

impl BulkState {
    /// A bulk source with a 64 KiB watermark polled every millisecond.
    pub fn new(total_bytes: u64, prop: u32) -> Self {
        BulkState {
            remaining: total_bytes,
            prop,
            low_watermark: 64 * 1024,
            interval: MILLIS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_defaults() {
        let b = BulkState::new(1 << 20, 7);
        assert_eq!(b.low_watermark, 64 * 1024);
        assert_eq!(b.prop, 7);
    }
}
