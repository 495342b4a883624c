//! Contract: `WearLeveler::before_write` returns the physical slot the
//! demand write lands on, which is `translate(la)` right after the call.
//! The controller writes to that slot without translating again, so a
//! scheme that returned a stale (pre-movement) slot would write demand
//! data into a line its mapping no longer points at.
//!
//! Every scheme in the workspace is driven through one seeded write stream
//! with small remap intervals, so the stream crosses inner and outer remap
//! boundaries many times, and the slot is checked after every write.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_feistel::FeistelNetwork;
use srbsg_pcm::{LineData, PcmBank, TimingModel, WearLeveler};
use srbsg_persist::{CheckpointPolicy, Journaled};
use srbsg_wearlevel::{
    AdaptiveRbsg, MultiWaySr, NoWearLeveling, Rbsg, SecurityRefresh, StartGap, TableWearLeveling,
    TwoLevelSr, WriteStreamDetector,
};

const WIDTH: u32 = 8;
const LINES: u64 = 1 << WIDTH;
const WRITES: u64 = 30_000;
const INNER: u64 = 3;
const OUTER: u64 = 5;

/// SplitMix64 finalizer: the write stream's source of randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write `i` of the stream: half the writes hammer line 7 (so a detector
/// alarms and one region's counter fills fast), the rest spread over the
/// bank.
fn la(i: u64) -> u64 {
    let r = mix(i);
    if r & 1 == 0 {
        7
    } else {
        (r >> 1) % LINES
    }
}

/// Drive `wl` through the stream as the controller does, checking the
/// contract on every write. Returns the number of writes that paid a remap
/// latency.
fn check(name: &str, wl: &mut dyn WearLeveler) -> u64 {
    let mut bank = PcmBank::new(wl.physical_slots(), u64::MAX, TimingModel::PAPER);
    wl.init_bank(&mut bank);
    let mut remapped = 0;
    for i in 0..WRITES {
        let la = la(i);
        let (latency, slot) = wl.before_write(la, &mut bank);
        assert_eq!(slot, wl.translate(la), "{name}: write {i} to la {la}");
        bank.write_line(slot, LineData::Mixed(i as u32));
        remapped += u64::from(latency > 0);
    }
    remapped
}

fn security_rbsg() -> SecurityRbsg {
    SecurityRbsg::new(SecurityRbsgConfig {
        inner_interval: INNER,
        outer_interval: OUTER,
        seed: 5,
        ..SecurityRbsgConfig::small(WIDTH, 4)
    })
}

fn adaptive() -> AdaptiveRbsg {
    let rbsg = Rbsg::with_feistel(&mut SmallRng::seed_from_u64(3), WIDTH, 4, INNER);
    AdaptiveRbsg::new(rbsg, WriteStreamDetector::new(8, 256, 0.3), 4)
}

/// A two-level scheme pays a remap on more writes than its outer level
/// alone fires on, so its inner level fired too.
fn assert_both_levels(name: &str, remapped: u64) {
    assert!(
        remapped > WRITES / OUTER,
        "{name}: {remapped} remapping writes, no more than the outer level's"
    );
}

#[test]
fn single_level_schemes_return_the_post_movement_slot() {
    assert_eq!(check("none", &mut NoWearLeveling::new(LINES)), 0);
    let mut rng = SmallRng::seed_from_u64(2);
    let schemes: [(&str, Box<dyn WearLeveler>); 4] = [
        ("start-gap", Box::new(StartGap::start_gap(LINES, INNER))),
        (
            "rbsg",
            Box::new(Rbsg::<FeistelNetwork>::with_feistel(
                &mut rng, WIDTH, 4, INNER,
            )),
        ),
        ("sr", Box::new(SecurityRefresh::new(LINES, 4, INNER, 4))),
        ("table", Box::new(TableWearLeveling::new(LINES, INNER))),
    ];
    for (name, mut wl) in schemes {
        assert!(
            check(name, &mut wl) > 0,
            "{name}: the stream never remapped"
        );
    }
}

#[test]
fn two_level_schemes_return_the_post_movement_slot() {
    let remapped = check(
        "two-level-sr",
        &mut TwoLevelSr::new(LINES, 4, INNER, OUTER, 6),
    );
    assert_both_levels("two-level-sr", remapped);
    let remapped = check(
        "multiway-sr",
        &mut MultiWaySr::new(LINES, 4, INNER, OUTER, 7),
    );
    assert_both_levels("multiway-sr", remapped);

    let mut s = security_rbsg();
    let remapped = check("security-rbsg", &mut s);
    assert_both_levels("security-rbsg", remapped);
    assert!(s.dfn().rounds_completed() >= 2, "outer rounds never rolled");

    let mut boxed: Box<dyn WearLeveler> = Box::new(security_rbsg());
    assert_eq!(check("boxed security-rbsg", &mut boxed), remapped);
}

#[test]
fn wrapped_schemes_forward_the_post_movement_slot() {
    let mut a = adaptive();
    check("adaptive", &mut a);
    assert!(
        a.detector().epochs_alarmed() > 0,
        "the detector never alarmed"
    );

    let policy = CheckpointPolicy::every_steps(64);
    let mut j = Journaled::with_policy(security_rbsg(), policy);
    let remapped = check("journaled security-rbsg", &mut j);
    assert_both_levels("journaled security-rbsg", remapped);
    assert!(j.checkpoints_installed() > 0, "no checkpoint fired");

    let mut j = Journaled::with_policy(adaptive(), policy);
    check("journaled adaptive", &mut j);
    assert!(j.scheme().detector().epochs_alarmed() > 0);
}
