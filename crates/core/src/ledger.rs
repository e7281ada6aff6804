//! The recovery ledger: cumulative accounting of LRA containers killed
//! by node loss (§2.3, §7.3).
//!
//! Every lost container ends in exactly one bucket — replaced,
//! terminally unplaceable, or still pending — so
//! `lost = replaced + unplaceable + pending` holds at every step. The
//! pending bucket is never stored: it is counted from the queue and the
//! in-flight table when a report is built, which is also where the
//! invariant is asserted. Nothing else writes these numbers.

use std::collections::BTreeMap;

use medea_cluster::ApplicationId;

use crate::recovery::RecoveryReport;

#[derive(Debug, Default)]
pub(crate) struct RecoveryLedger {
    lost: usize,
    replaced: usize,
    unplaceable: usize,
    unplaceable_by_app: BTreeMap<ApplicationId, usize>,
}

impl RecoveryLedger {
    /// `n` LRA containers died with their node and entered the recovery
    /// queue.
    pub(crate) fn lost(&mut self, n: usize) {
        self.lost += n;
    }

    /// `n` lost containers were re-placed.
    pub(crate) fn replaced(&mut self, n: usize) {
        self.replaced += n;
    }

    /// `n` lost containers of `app` left the pipeline without a
    /// replacement: retry budget exhausted, or the app was cancelled or
    /// scaled down while they were undeployed.
    pub(crate) fn unplaceable(&mut self, app: ApplicationId, n: usize) {
        if n > 0 {
            self.unplaceable += n;
            *self.unplaceable_by_app.entry(app).or_insert(0) += n;
        }
    }

    /// The cumulative report, given the recovery containers currently
    /// pending (queued plus in flight).
    pub(crate) fn report(&self, pending: usize) -> RecoveryReport {
        let report = RecoveryReport {
            containers_lost: self.lost,
            containers_replaced: self.replaced,
            containers_unplaceable: self.unplaceable,
            containers_pending: pending,
            unplaceable_by_app: self
                .unplaceable_by_app
                .iter()
                .map(|(&app, &n)| (app, n))
                .collect(),
        };
        debug_assert!(
            report.accounted(),
            "recovery ledger out of balance: {report:?}"
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lost_container_lands_in_one_bucket() {
        let mut ledger = RecoveryLedger::default();
        ledger.lost(5);
        assert!(ledger.report(5).accounted());
        ledger.replaced(2);
        ledger.unplaceable(ApplicationId(7), 1);
        ledger.unplaceable(ApplicationId(3), 1);
        ledger.unplaceable(ApplicationId(7), 0);
        let report = ledger.report(1);
        assert!(report.accounted());
        assert_eq!(report.containers_replaced, 2);
        assert_eq!(
            report.unplaceable_by_app,
            vec![(ApplicationId(3), 1), (ApplicationId(7), 1)]
        );
    }
}
