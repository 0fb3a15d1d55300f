//! Pins the generator's record stream, record by record.
//!
//! Every other golden in the workspace sees the generator only through
//! replay counters, mostly at one seed. This test folds every field of
//! every record of a 200,000-reference stream into FNV-1a 64, for the
//! three paper profiles and a time-shared, migrating custom profile (more
//! processes than CPUs, so the ready-queue context switches run), each at
//! three seeds. Any change to a random draw, its order or its type shows
//! here as a changed digest.

use dircc_trace::gen::{Generator, Profile};

/// References per digested stream.
const REFS: u64 = 200_000;

/// FNV-1a 64 over every record: `cpu` and `pid` as u16 LE, the kind's
/// discriminant (instruction fetch 0, read 1, write 2), the flag bits,
/// then `addr` as u64 LE, one byte at a time.
fn digest(profile: Profile, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in Generator::new(profile.with_total_refs(REFS), seed) {
        let cpu = r.cpu.raw().to_le_bytes();
        let pid = r.pid.raw().to_le_bytes();
        let fields = [r.kind as u8, r.flags.bits()];
        let addr = r.addr.raw().to_le_bytes();
        for &b in cpu.iter().chain(&pid).chain(&fields).chain(&addr) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn record_stream_digests_are_pinned() {
    let time_shared = || Profile::custom().with_cpus(2).with_processes(5).with_migration_prob(0.2);
    let cases: [(&str, Profile, [u64; 3]); 4] = [
        (
            "pops",
            Profile::pops(),
            [0xe00b_d302_1918_a6eb, 0x4e98_ef06_8aad_9b2e, 0x89ee_f5e4_72dc_98ed],
        ),
        (
            "thor",
            Profile::thor(),
            [0x2874_83eb_cf7b_d1c1, 0xf5fd_7b73_1a0c_4248, 0x0ecb_ad38_5334_a9bc],
        ),
        (
            "pero",
            Profile::pero(),
            [0x6e45_6a16_48a8_355b, 0x838f_a279_80c6_85a2, 0xd782_edb8_4e9b_8795],
        ),
        (
            "custom 2 cpus, 5 processes",
            time_shared(),
            [0xc925_57e1_93d4_da0c, 0x4929_5fc0_3a91_25f2, 0x38e8_3d7d_71c9_88ae],
        ),
    ];
    let mut drift = Vec::new();
    for (name, profile, want) in cases {
        for (seed, want) in [1, 1988, 31337].into_iter().zip(want) {
            let got = digest(profile.clone(), seed);
            if got != want {
                drift.push(format!("{name} seed {seed}: {got:016x}, pinned {want:016x}"));
            }
        }
    }
    assert!(drift.is_empty(), "the generator's record stream moved:\n{}", drift.join("\n"));
}
