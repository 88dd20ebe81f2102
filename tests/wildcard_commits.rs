//! How a wildcard receive was released — by the clock rule or at
//! quiescence — is decided by virtual time alone, so the two commit
//! counters are exact for a given (application, process count, driver).
//! Master/worker shows both: traced, every worker returns right after
//! its result and the clock rule releases each match; under the
//! checkpoint coordinator the workers park at the step boundary with
//! their clock *equal* to their result's departure, so only quiescence
//! can.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::by_name;

/// A counter's value, 0 while nothing has recorded it.
fn counter(name: &str) -> u64 {
    let counters = pas2p_obs::global().snapshot().counters;
    counters.get(name).copied().unwrap_or(0)
}

fn commits() -> (u64, u64) {
    (
        counter("mpisim.wildcard.clock_commits"),
        counter("mpisim.wildcard.quiescence_commits"),
    )
}

#[test]
fn masterworker_commit_counters_are_pinned() {
    let base = cluster_a();
    let pas2p = Pas2p::default();
    pas2p_obs::set_enabled(true);
    for n in [4u32, 8] {
        let workers = u64::from(n) - 1;
        let app = by_name("masterworker", n).expect("catalog app");

        pas2p_obs::global().reset();
        run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        assert_eq!(commits(), (workers, 0), "run_traced at {n} ranks");

        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        pas2p_obs::global().reset();
        pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
        assert_eq!(commits(), (0, workers), "construct_signature at {n} ranks");

        // How often a rank parked, and how many of those parks slept on
        // the condvar rather than being woken while yielding, depend on
        // the schedule, so neither count is pinned; each park is timed
        // once.
        let parks = counter("mpisim.parks");
        let sleeps = counter("mpisim.park_sleeps");
        assert!(sleeps <= parks, "{sleeps} sleeps > {parks} parks");
        let histograms = pas2p_obs::global().snapshot().histograms;
        let waits = histograms.get("mpisim.park_wait_us").map_or(0, |h| h.count);
        assert_eq!(waits, parks);
    }
    pas2p_obs::set_enabled(false);
}
