//! Shared by the root test binaries.

use ecoscale::sim::check::CHECK_ENV;
use ecoscale::sim::RunCtx;

/// One thread, one shard, and checks armed from `ECOSCALE_CHECK`. This
/// is the one place these tests read the variable, so an armed test pass
/// checks every simulator, system and serving cell built from it.
pub fn ctx() -> RunCtx {
    let check = std::env::var(CHECK_ENV).ok();
    RunCtx::parse(Some("1"), Some("1"), check.as_deref())
}
