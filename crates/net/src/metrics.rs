//! Message and byte accounting for the simulated network.
//!
//! Every experiment table in `EXPERIMENTS.md` reports message complexity; the
//! counters here are the single source of truth for those columns. Counters
//! are bucketed by [`MessageClass`] and by the payload's stable label so that
//! e.g. "edge-destruction" control messages can be distinguished from
//! "vector-propagation" messages.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::message::MessageClass;

/// Key of one metrics bucket: the payload class plus its stable label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MetricKey {
    /// Mutator or control traffic.
    pub class: MessageClass,
    /// Stable payload label, e.g. `"edge-destruction"`.
    pub label: String,
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.class, self.label)
    }
}

/// Per-bucket counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
struct Bucket {
    sent: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    bytes_sent: u64,
}

/// One row of [`NetMetrics::bucket_rows`]: the per-`(class, label)`
/// counters, read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketRow {
    /// The bucket's class + payload label.
    pub key: MetricKey,
    /// Messages accepted for sending.
    pub sent: u64,
    /// Messages delivered (fault-injected duplicates not included).
    pub delivered: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Duplicate deliveries injected.
    pub duplicated: u64,
    /// Bytes accepted for sending.
    pub bytes_sent: u64,
}

/// Aggregated network metrics.
///
/// # Example
///
/// ```
/// use ggd_net::{MessageClass, NetMetrics};
/// let mut m = NetMetrics::new();
/// m.record_sent(MessageClass::Control, "edge-destruction", 32);
/// m.record_delivered(MessageClass::Control, "edge-destruction");
/// assert_eq!(m.sent_total(), 1);
/// assert_eq!(m.control_messages_sent(), 1);
/// assert_eq!(m.mutator_messages_sent(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetMetrics {
    buckets: BTreeMap<MetricKey, Bucket>,
    /// Payload bytes currently sitting in transport queues.
    queued_bytes: u64,
    /// High-water mark of `queued_bytes` — the backlog a deployment would
    /// have to buffer. Reported by the repo benchmark
    /// (`net.peak_queued_bytes`).
    peak_queued_bytes: u64,
}

impl NetMetrics {
    /// Creates an empty metrics table.
    pub fn new() -> Self {
        NetMetrics::default()
    }

    /// The bucket of `(class, label)`, created if needed. Buckets are few
    /// (one per class and payload label), so a scan finds one without
    /// building an owned key; only a new bucket allocates its label.
    fn bucket(&mut self, class: MessageClass, label: &str) -> &mut Bucket {
        let is_key = |key: &MetricKey| key.class == class && key.label == label;
        if !self.buckets.keys().any(is_key) {
            let key = MetricKey {
                class,
                label: label.to_owned(),
            };
            return self.buckets.entry(key).or_default();
        }
        self.buckets
            .iter_mut()
            .find_map(|(key, bucket)| is_key(key).then_some(bucket))
            .expect("the bucket was just found")
    }

    /// Records a message accepted for sending.
    pub fn record_sent(&mut self, class: MessageClass, label: &str, bytes: usize) {
        let b = self.bucket(class, label);
        b.sent += 1;
        b.bytes_sent += bytes as u64;
    }

    /// Records a successful delivery.
    pub fn record_delivered(&mut self, class: MessageClass, label: &str) {
        self.bucket(class, label).delivered += 1;
    }

    /// Records a message dropped by fault injection.
    pub fn record_dropped(&mut self, class: MessageClass, label: &str) {
        self.bucket(class, label).dropped += 1;
    }

    /// Records a fault-injected duplicate delivery.
    pub fn record_duplicated(&mut self, class: MessageClass, label: &str) {
        self.bucket(class, label).duplicated += 1;
    }

    /// Frame-layer send accounting: a byte-level transport (the parallel
    /// driver's worker mesh) reports sends through this hook, so
    /// `control_bytes_sent` / `mutator_bytes_sent` count encoded frame
    /// lengths. Returns the frame's wire length for the caller's queue
    /// accounting.
    pub fn record_frame_sent(&mut self, frame: &crate::Frame) -> usize {
        let len = frame.wire_len();
        self.record_sent(frame.class(), frame.label(), len);
        len
    }

    /// Frame-layer delivery accounting; see [`NetMetrics::record_frame_sent`].
    pub fn record_frame_delivered(&mut self, frame: &crate::Frame) {
        self.record_delivered(frame.class(), frame.label());
    }

    /// Frame-layer drop accounting (crashed or departed destination); see
    /// [`NetMetrics::record_frame_sent`].
    pub fn record_frame_dropped(&mut self, frame: &crate::Frame) {
        self.record_dropped(frame.class(), frame.label());
    }

    /// Notes `bytes` entering a transport queue, updating the high-water
    /// mark.
    pub fn note_enqueued(&mut self, bytes: usize) {
        self.queued_bytes += bytes as u64;
        self.peak_queued_bytes = self.peak_queued_bytes.max(self.queued_bytes);
    }

    /// Notes `bytes` leaving a transport queue (delivered or discarded).
    pub fn note_dequeued(&mut self, bytes: usize) {
        self.queued_bytes = self.queued_bytes.saturating_sub(bytes as u64);
    }

    /// Payload bytes currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// The highest number of payload bytes ever queued at once.
    pub fn peak_queued_bytes(&self) -> u64 {
        self.peak_queued_bytes
    }

    /// Total messages accepted for sending.
    pub fn sent_total(&self) -> u64 {
        self.buckets.values().map(|b| b.sent).sum()
    }

    /// Total messages delivered (duplicates included).
    pub fn delivered_total(&self) -> u64 {
        self.buckets
            .values()
            .map(|b| b.delivered + b.duplicated)
            .sum()
    }

    /// Total messages dropped by fault injection.
    pub fn dropped_total(&self) -> u64 {
        self.buckets.values().map(|b| b.dropped).sum()
    }

    /// Total duplicate deliveries injected.
    pub fn duplicated_total(&self) -> u64 {
        self.buckets.values().map(|b| b.duplicated).sum()
    }

    /// Total bytes accepted for sending.
    pub fn bytes_sent_total(&self) -> u64 {
        self.buckets.values().map(|b| b.bytes_sent).sum()
    }

    /// Messages sent in a given class.
    pub fn sent_in_class(&self, class: MessageClass) -> u64 {
        self.buckets
            .iter()
            .filter(|(k, _)| k.class == class)
            .map(|(_, b)| b.sent)
            .sum()
    }

    /// Control (collector overhead) messages sent.
    pub fn control_messages_sent(&self) -> u64 {
        self.sent_in_class(MessageClass::Control)
    }

    /// Mutator (application) messages sent.
    pub fn mutator_messages_sent(&self) -> u64 {
        self.sent_in_class(MessageClass::Mutator)
    }

    /// Bytes accepted for sending in a given class.
    pub fn bytes_in_class(&self, class: MessageClass) -> u64 {
        self.buckets
            .iter()
            .filter(|(k, _)| k.class == class)
            .map(|(_, b)| b.bytes_sent)
            .sum()
    }

    /// Control (collector overhead) bytes sent. On framed transports this is
    /// real encoded wire bytes; the simulated network reports size hints.
    pub fn control_bytes_sent(&self) -> u64 {
        self.bytes_in_class(MessageClass::Control)
    }

    /// Mutator (application) bytes sent.
    pub fn mutator_bytes_sent(&self) -> u64 {
        self.bytes_in_class(MessageClass::Mutator)
    }

    /// Per-bucket snapshot in canonical `(class, label)` order — the
    /// observability layer renders one `msg-class` trace event per row.
    pub fn bucket_rows(&self) -> Vec<BucketRow> {
        self.buckets
            .iter()
            .map(|(key, b)| BucketRow {
                key: key.clone(),
                sent: b.sent,
                delivered: b.delivered,
                dropped: b.dropped,
                duplicated: b.duplicated,
                bytes_sent: b.bytes_sent,
            })
            .collect()
    }

    /// Raises the queue high-water mark to at least `peak`. Transports that
    /// track queue depth with shared atomic counters (the parallel driver's
    /// per-worker mailboxes) fold their global peak into a merged metrics
    /// table through this.
    pub fn note_peak_queued(&mut self, peak: u64) {
        self.peak_queued_bytes = self.peak_queued_bytes.max(peak);
    }

    /// Merges another metrics table into this one (used when aggregating
    /// several runs of an experiment).
    pub fn absorb(&mut self, other: &NetMetrics) {
        for (key, bucket) in &other.buckets {
            let mine = self.buckets.entry(key.clone()).or_default();
            mine.sent += bucket.sent;
            mine.delivered += bucket.delivered;
            mine.dropped += bucket.dropped;
            mine.duplicated += bucket.duplicated;
            mine.bytes_sent += bucket.bytes_sent;
        }
        self.queued_bytes += other.queued_bytes;
        // Peaks of independent runs do not add up; the aggregate keeps the
        // worst single-run backlog.
        self.peak_queued_bytes = self.peak_queued_bytes.max(other.peak_queued_bytes);
    }
}

impl fmt::Display for NetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: sent={} delivered={} dropped={} duplicated={} bytes={}",
            self.sent_total(),
            self.delivered_total(),
            self.dropped_total(),
            self.duplicated_total(),
            self.bytes_sent_total()
        )?;
        for (key, b) in &self.buckets {
            writeln!(
                f,
                "  {key}: sent={} delivered={} dropped={} dup={} bytes={}",
                b.sent, b.delivered, b.dropped, b.duplicated, b.bytes_sent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = NetMetrics::new();
        m.record_sent(MessageClass::Mutator, "payload", 100);
        m.record_sent(MessageClass::Control, "edge-destruction", 40);
        m.record_sent(MessageClass::Control, "vector-propagation", 60);
        m.record_delivered(MessageClass::Mutator, "payload");
        m.record_dropped(MessageClass::Control, "edge-destruction");
        m.record_duplicated(MessageClass::Control, "vector-propagation");

        assert_eq!(m.sent_total(), 3);
        assert_eq!(m.delivered_total(), 2); // one real + one duplicate
        assert_eq!(m.dropped_total(), 1);
        assert_eq!(m.duplicated_total(), 1);
        assert_eq!(m.bytes_sent_total(), 200);
        assert_eq!(m.control_messages_sent(), 2);
        assert_eq!(m.mutator_messages_sent(), 1);
    }

    #[test]
    fn absorb_merges_buckets() {
        let mut a = NetMetrics::new();
        a.record_sent(MessageClass::Control, "x", 10);
        let mut b = NetMetrics::new();
        b.record_sent(MessageClass::Control, "x", 5);
        b.record_sent(MessageClass::Mutator, "y", 1);
        a.absorb(&b);
        let rows = a.bucket_rows();
        let x = rows.iter().find(|row| row.key.label == "x").unwrap();
        assert_eq!((x.sent, x.bytes_sent), (2, 15));
        assert_eq!(a.mutator_messages_sent(), 1);
    }

    #[test]
    fn display_contains_buckets() {
        let mut m = NetMetrics::new();
        m.record_sent(MessageClass::Control, "edge-destruction", 10);
        let text = m.to_string();
        assert!(text.contains("control/edge-destruction"));
        assert!(text.contains("sent=1"));
    }
}
