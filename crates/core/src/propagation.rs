//! The half Algorithms 1 and 2 share: stamping, signing, merging and
//! forwarding suspicions, and entering epochs (Algorithm 1 lines 9–24 and
//! 28–29; §VIII: "suspicions are propagated exactly as in Algorithm 1").
//!
//! What a module *does* with the merged matrix — which quorum it issues,
//! whether it names a leader — stays in its own file.

use qsel_obs::{TraceEvent, TraceSink};
use qsel_types::crypto::{Signer, Verifier};
use qsel_types::{ClusterConfig, Epoch, ProcessId, ProcessSet};

use crate::matrix::SuspectMatrix;
use crate::messages::{SignedUpdate, UpdateRow};
use crate::stats::SelectionStats;

/// The propagation state of one selection module.
#[derive(Debug)]
pub(crate) struct Propagation {
    pub(crate) cfg: ClusterConfig,
    pub(crate) me: ProcessId,
    pub(crate) signer: Signer,
    pub(crate) verifier: Verifier,
    pub(crate) epoch: Epoch,
    pub(crate) suspecting: ProcessSet,
    pub(crate) matrix: SuspectMatrix,
    pub(crate) stats: SelectionStats,
    pub(crate) trace: TraceSink,
}

impl Propagation {
    /// The paper's initial state: `epoch = 1`, empty suspicions, all-zero
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if `signer` does not belong to `me`.
    pub(crate) fn new(
        cfg: ClusterConfig,
        me: ProcessId,
        signer: Signer,
        verifier: Verifier,
    ) -> Self {
        assert_eq!(signer.id(), me, "signer identity mismatch");
        Propagation {
            me,
            signer,
            verifier,
            epoch: Epoch::initial(),
            suspecting: ProcessSet::new(),
            matrix: SuspectMatrix::new(cfg.n()),
            stats: SelectionStats::default(),
            trace: TraceSink::disabled(),
            cfg,
        }
    }

    /// Merges a received `UPDATE` (Algorithm 1 lines 16–22). Returns
    /// whether the matrix changed — the caller then forwards the update
    /// and recomputes its quorum. Invalid signatures and malformed rows are
    /// dropped: an unauthenticated message cannot be attributed to anyone.
    pub(crate) fn merge_update(&mut self, update: &SignedUpdate) -> bool {
        let row = match self.verifier.verify(update) {
            Ok(row) if row.is_valid_for(self.cfg.n()) => row,
            _ => {
                self.stats.invalid_updates += 1;
                return false;
            }
        };
        let changed = self.matrix.merge_row(update.signer, &row.row);
        if changed {
            self.stats.updates_forwarded += 1;
        }
        changed
    }

    /// `updateSuspicions(S)` (Algorithm 1 lines 11–15): replaces the
    /// current suspicion set, stamps it in the current epoch and returns
    /// our signed row for broadcast.
    pub(crate) fn stamp_and_sign_row(&mut self, s: ProcessSet) -> SignedUpdate {
        self.suspecting = s;
        for j in self.suspecting.iter() {
            if j != self.me {
                self.matrix.stamp(self.me, j, self.epoch);
            }
        }
        self.stats.updates_sent += 1;
        self.signer.sign(UpdateRow {
            row: self.matrix.row(self.me).to_vec(),
        })
    }

    /// Enters the next epoch (the caller re-issues its suspicions there).
    /// `algo` is the trace label, `"qs"` or `"fs"`.
    pub(crate) fn enter_next_epoch(&mut self, algo: &'static str) {
        self.epoch = self.epoch.next();
        self.stats.epochs_entered += 1;
        self.trace.emit(|| TraceEvent::EpochEntered {
            p: self.me.0,
            epoch: self.epoch.get(),
            algo: algo.into(),
        });
    }

    /// Counts and traces a `⟨QUORUM⟩` event issued in the current epoch.
    pub(crate) fn record_quorum(&mut self, algo: &'static str, members: ProcessSet) {
        self.stats.record_quorum(self.epoch, members);
        self.trace.emit(|| TraceEvent::QuorumIssued {
            p: self.me.0,
            epoch: self.epoch.get(),
            algo: algo.into(),
            members: members.iter().map(|p| p.0).collect(),
        });
    }
}
