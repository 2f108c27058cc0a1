//! Golden pin of a rollback fault campaign.
//!
//! The campaign is sfbench's `faults` request at seed 42: every app and
//! fault kind, rates of 50 000 and 1 000 000 ppm, one trial per cell, and
//! checkpoint intervals of 2 and 4 passes under the rollback recovery mode.
//! Its serialized [`CampaignReport`] — every seed, detection, recovery,
//! rollback count, overhead cycle and diagnosis — lives in
//! `tests/golden/campaign_rollback.json` and must match byte for byte, on
//! two workers and once more on the scalar engine. A change to how trials
//! execute may make them faster; it must not change what they report.
//!
//! Regenerate after an intentional change with
//! `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench --test campaign_golden`.

use sf_bench::faults::{run_campaign, CampaignApp, CampaignConfig, CampaignReport, RecoveryMode};
use sf_fpga::ExecEngine;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign_rollback.json");

fn config(jobs: usize, engine: ExecEngine) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        rates_ppm: vec![50_000, 1_000_000],
        trials_per_cell: 1,
        jobs,
        recovery: RecoveryMode::Rollback,
        checkpoint_every: vec![2, 4],
        engine,
        ..CampaignConfig::default()
    }
}

fn render(rep: &CampaignReport) -> String {
    let mut s = serde_json::to_string_pretty(rep).expect("serializable");
    s.push('\n');
    s
}

#[test]
fn rollback_campaign_matches_golden_file() {
    let rep = run_campaign(&CampaignApp::ALL, &config(2, ExecEngine::Fast));
    assert!(rep.all_accounted(), "{}", rep.render_table());
    let got = render(&rep);
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present; regenerate with SF_UPDATE_GOLDEN=1");
    let scalar = render(&run_campaign(&CampaignApp::ALL, &config(1, ExecEngine::Scalar)));
    for (what, got) in [("fast engine, 2 workers", got), ("scalar engine, 1 worker", scalar)] {
        if got != want {
            let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
            panic!(
                "{what}: campaign drifted from tests/golden/campaign_rollback.json \
                 (first differing line: {line:?}); SF_UPDATE_GOLDEN=1 accepts an intentional change"
            );
        }
    }
}
