//! The workspace-wide packet outcome taxonomy.
//!
//! Every packet that enters any DIP component ends in exactly one of
//! three states — forwarded, consumed locally, or dropped for a reason —
//! and every layer (dataplane rings, the Algorithm-1 core, the simulator)
//! accounts against the same [`DropReason`] enum. This is the single
//! definition; `dip_fnops` re-exports it so existing `dip_fnops::DropReason`
//! paths keep working.

use crate::metrics::Counter;
use crate::registry::Registry;
use std::sync::Arc;

/// Why a packet was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No FIB entry matched the destination / name.
    NoRoute,
    /// Data arrived with no pending interest (§3: "discards the packet").
    PitMiss,
    /// Data arrived for an interest whose PIT entry had already aged out
    /// under virtual time — the request existed but lapsed mid-flight
    /// (e.g. during a partition window). Distinct from [`PitMiss`]
    /// (never requested) so disruption scenarios can tell "too late"
    /// from "unsolicited".
    ///
    /// [`PitMiss`]: DropReason::PitMiss
    PitExpired,
    /// Duplicate interest nonce (loop suppression).
    DuplicateInterest,
    /// PIT capacity exhausted (§2.4 state budget).
    StateBudgetExhausted,
    /// An authentication tag failed verification.
    AuthenticationFailed,
    /// A MAC/mark operation ran before `F_parm` provided a key.
    MissingDynamicKey,
    /// A field could not be parsed (bad DAG, short field, ...).
    MalformedField,
    /// Hop limit reached zero.
    HopLimitExceeded,
    /// DAG navigation found no routable node on any fallback.
    DagUnroutable,
    /// A source label failed `F_pass` verification.
    BadSourceLabel,
    /// A policing operation (e.g. a NetFence-style rate limiter) dropped
    /// the packet.
    RateLimited,
    /// The per-packet processing budget was exceeded (§2.4).
    ProcessingBudgetExceeded,
    /// An FN requiring participation is not supported here (§2.4).
    UnsupportedFn,
    /// Static admission (`dipcheck`) refused the packet's FN program
    /// before execution — a dataplane shard never runs a chain with
    /// error-severity diagnostics.
    ProgramRejected,
    /// An ingress queue (SPSC ring) was full under drop backpressure —
    /// the packet never reached a worker.
    QueueFull,
}

impl DropReason {
    /// Every reason, in stable order ([`DropReason::index`] indexes it).
    pub const ALL: [DropReason; 16] = [
        DropReason::NoRoute,
        DropReason::PitMiss,
        DropReason::PitExpired,
        DropReason::DuplicateInterest,
        DropReason::StateBudgetExhausted,
        DropReason::AuthenticationFailed,
        DropReason::MissingDynamicKey,
        DropReason::MalformedField,
        DropReason::HopLimitExceeded,
        DropReason::DagUnroutable,
        DropReason::BadSourceLabel,
        DropReason::RateLimited,
        DropReason::ProcessingBudgetExceeded,
        DropReason::UnsupportedFn,
        DropReason::ProgramRejected,
        DropReason::QueueFull,
    ];

    /// The snake_case metric label for this reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::NoRoute => "no_route",
            DropReason::PitMiss => "pit_miss",
            DropReason::PitExpired => "pit_expired",
            DropReason::DuplicateInterest => "duplicate_interest",
            DropReason::StateBudgetExhausted => "state_budget_exhausted",
            DropReason::AuthenticationFailed => "authentication_failed",
            DropReason::MissingDynamicKey => "missing_dynamic_key",
            DropReason::MalformedField => "malformed_field",
            DropReason::HopLimitExceeded => "hop_limit_exceeded",
            DropReason::DagUnroutable => "dag_unroutable",
            DropReason::BadSourceLabel => "bad_source_label",
            DropReason::RateLimited => "rate_limited",
            DropReason::ProcessingBudgetExceeded => "processing_budget_exceeded",
            DropReason::UnsupportedFn => "unsupported_fn",
            DropReason::ProgramRejected => "program_rejected",
            DropReason::QueueFull => "queue_full",
        }
    }

    /// Position of this reason in [`DropReason::ALL`].
    pub fn index(&self) -> usize {
        DropReason::ALL.iter().position(|r| r == self).expect("every reason is in ALL")
    }
}

/// What ultimately happened to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Sent onward on one or more egress ports.
    Forwarded,
    /// Terminated locally without error (delivered, absorbed into a PIT
    /// entry, answered from a cache, or turned into a control reply).
    Consumed,
    /// Discarded, with the reason.
    Dropped(DropReason),
}

impl PacketOutcome {
    /// The metric label for the outcome class (`forwarded` / `consumed`
    /// / `dropped`).
    pub fn as_str(&self) -> &'static str {
        match self {
            PacketOutcome::Forwarded => "forwarded",
            PacketOutcome::Consumed => "consumed",
            PacketOutcome::Dropped(_) => "dropped",
        }
    }
}

/// The canonical per-entity counter set over the outcome taxonomy.
///
/// Registers `dip_packets_total{outcome=...}` (one instance per outcome
/// class) and `dip_drops_total{reason=...}` (one instance per
/// [`DropReason`]) under the caller's extra labels (`worker=3`,
/// `node=router-0`, ...). [`OutcomeCounters::record`] maintains the
/// accounting invariant the determinism test asserts:
///
/// ```text
/// packets_total{forwarded} + packets_total{consumed} + drops_total{*}
///     == packets accounted
/// ```
///
/// A drop increments `drops_total{reason}` and `packets_total{dropped}`;
/// queue drops counted directly on a ring's [`Counter`] (which *is* the
/// `reason=queue_full` instance) bump only `drops_total`, because those
/// packets never reached the entity's `packets_total` stage.
#[derive(Debug, Clone)]
pub struct OutcomeCounters {
    forwarded: Arc<Counter>,
    consumed: Arc<Counter>,
    dropped: Arc<Counter>,
    drops: Vec<Arc<Counter>>,
}

impl OutcomeCounters {
    /// Registers the counter set in `registry` under `labels`.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        fn with<'a>(
            labels: &[(&'a str, &'a str)],
            extra: (&'a str, &'a str),
        ) -> Vec<(&'a str, &'a str)> {
            let mut all = labels.to_vec();
            all.push(extra);
            all
        }
        let packets_help = "Packets accounted by final outcome class";
        let drops_help = "Packets dropped by reason";
        OutcomeCounters {
            forwarded: registry.counter(
                "dip_packets_total",
                packets_help,
                &with(labels, ("outcome", "forwarded")),
            ),
            consumed: registry.counter(
                "dip_packets_total",
                packets_help,
                &with(labels, ("outcome", "consumed")),
            ),
            dropped: registry.counter(
                "dip_packets_total",
                packets_help,
                &with(labels, ("outcome", "dropped")),
            ),
            drops: DropReason::ALL
                .iter()
                .map(|r| {
                    registry.counter(
                        "dip_drops_total",
                        drops_help,
                        &with(labels, ("reason", r.as_str())),
                    )
                })
                .collect(),
        }
    }

    /// Records one packet's outcome.
    pub fn record(&self, outcome: PacketOutcome) {
        match outcome {
            PacketOutcome::Forwarded => self.forwarded.inc(),
            PacketOutcome::Consumed => self.consumed.inc(),
            PacketOutcome::Dropped(reason) => {
                self.dropped.inc();
                self.drops[reason.index()].inc();
            }
        }
    }

    /// Publishes `tally` into these counters and empties it: one atomic
    /// add per non-zero class and reason, however many packets it holds.
    pub fn flush(&self, tally: &mut OutcomeTally) {
        for (counter, n) in [
            (&self.forwarded, tally.forwarded),
            (&self.consumed, tally.consumed),
            (&self.dropped, tally.drops.iter().sum()),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
        for (counter, &n) in self.drops.iter().zip(&tally.drops) {
            if n > 0 {
                counter.add(n);
            }
        }
        *tally = OutcomeTally::default();
    }

    /// The `dip_drops_total{reason}` counter — e.g. to hand the
    /// `QueueFull` instance to an SPSC ring so ring drops land in the
    /// same ledger with no double counting.
    pub fn drop_counter(&self, reason: DropReason) -> Arc<Counter> {
        Arc::clone(&self.drops[reason.index()])
    }

    /// Packets forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// Packets consumed locally.
    pub fn consumed(&self) -> u64 {
        self.consumed.get()
    }

    /// Packets dropped across all reasons (including direct counts on
    /// [`OutcomeCounters::drop_counter`] handles).
    pub fn dropped(&self) -> u64 {
        self.drops.iter().map(|c| c.get()).sum()
    }
}

/// Outcomes tallied in plain integers by the one thread that owns them,
/// published into an [`OutcomeCounters`] by [`OutcomeCounters::flush`].
///
/// A hot loop records into a tally per packet and flushes once per batch,
/// so it writes no shared atomic per packet; the registry lags the loop by
/// at most the unflushed tally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    forwarded: u64,
    consumed: u64,
    /// Indexed like [`DropReason::ALL`].
    drops: [u64; DropReason::ALL.len()],
}

impl OutcomeTally {
    /// Tallies one packet's outcome.
    pub fn record(&mut self, outcome: PacketOutcome) {
        match outcome {
            PacketOutcome::Forwarded => self.forwarded += 1,
            PacketOutcome::Consumed => self.consumed += 1,
            PacketOutcome::Dropped(reason) => self.drops[reason.index()] += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_has_a_unique_label_and_index() {
        let mut labels: Vec<&str> = DropReason::ALL.iter().map(|r| r.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DropReason::ALL.len());
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn record_keeps_the_accounting_invariant() {
        let registry = Registry::new();
        let oc = OutcomeCounters::register(&registry, &[("worker", "0")]);
        oc.record(PacketOutcome::Forwarded);
        oc.record(PacketOutcome::Forwarded);
        oc.record(PacketOutcome::Consumed);
        oc.record(PacketOutcome::Dropped(DropReason::NoRoute));
        oc.record(PacketOutcome::Dropped(DropReason::PitMiss));
        // A ring counting directly on the queue_full handle.
        oc.drop_counter(DropReason::QueueFull).inc();

        assert_eq!(oc.forwarded(), 2);
        assert_eq!(oc.consumed(), 1);
        assert_eq!(oc.dropped(), 3);

        let snap = registry.snapshot();
        let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
        let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
        let drops = snap.get("dip_drops_total");
        assert_eq!(forwarded + consumed + drops, 6, "every packet accounted exactly once");
        assert_eq!(snap.sum_where("dip_drops_total", &[("reason", "queue_full")]), 1);
    }

    #[test]
    fn a_flushed_tally_counts_like_per_packet_records() {
        let outcomes = [
            PacketOutcome::Forwarded,
            PacketOutcome::Consumed,
            PacketOutcome::Dropped(DropReason::PitMiss),
            PacketOutcome::Forwarded,
            PacketOutcome::Dropped(DropReason::NoRoute),
            PacketOutcome::Dropped(DropReason::PitMiss),
        ];
        let (direct_reg, tallied_reg) = (Registry::new(), Registry::new());
        let direct = OutcomeCounters::register(&direct_reg, &[]);
        let tallied = OutcomeCounters::register(&tallied_reg, &[]);
        let mut tally = OutcomeTally::default();
        for outcome in outcomes {
            direct.record(outcome);
            tally.record(outcome);
        }
        assert_eq!(tallied_reg.snapshot().get("dip_packets_total"), 0, "nothing before the flush");
        tallied.flush(&mut tally);
        assert_eq!(tally, OutcomeTally::default(), "a flush empties the tally");
        tallied.flush(&mut tally);
        assert_eq!(tallied_reg.snapshot().to_json(), direct_reg.snapshot().to_json());
    }

    #[test]
    fn same_labels_share_instances() {
        let registry = Registry::new();
        let a = OutcomeCounters::register(&registry, &[("node", "7")]);
        let b = OutcomeCounters::register(&registry, &[("node", "7")]);
        a.record(PacketOutcome::Forwarded);
        assert_eq!(b.forwarded(), 1);
    }
}
