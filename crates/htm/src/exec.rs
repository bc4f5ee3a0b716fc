//! The hardware model and statistics sink a machine's HTM users share.
//!
//! RTM offers no forward-progress guarantee, so its users retry a bounded
//! number of times and then take a software fallback (§6.2). Those retry
//! loops live with their fallbacks — DrTM's transaction layer and the
//! memory store's INSERT/DELETE; an [`Executor`] is what they share:
//! the [`HtmConfig`] to begin regions with and the [`HtmStats`] to
//! record outcomes in.

use std::sync::Arc;

use crate::stats::HtmStats;
use crate::txn::HtmConfig;

/// The HTM configuration and shared statistics of one machine.
#[derive(Debug, Clone)]
pub struct Executor {
    cfg: HtmConfig,
    stats: Arc<HtmStats>,
}

impl Executor {
    /// Creates an executor with the given hardware model and shared stats.
    pub fn new(cfg: HtmConfig, stats: Arc<HtmStats>) -> Self {
        Executor { cfg, stats }
    }

    /// Returns the HTM configuration in use.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Returns the shared statistics sink.
    pub fn stats(&self) -> &Arc<HtmStats> {
        &self.stats
    }
}
