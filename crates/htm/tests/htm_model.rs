//! Property tests: the software HTM against a reference model.
//!
//! A transaction's buffered reads/writes over a region must behave like
//! the same operation sequence over a plain byte array — committed
//! all-or-nothing, with read-your-writes, regardless of operation
//! interleaving, alignment or span — and so must the non-transactional
//! operations run between transactions, whose stores merge partial
//! words into the region's word array. A thread's transactions share one
//! descriptor (line table, staged lines, lists), so each must also
//! behave as if it were the thread's first: the properties run
//! *sequences* of transactions, and the plain tests below them reach
//! the table's growth, the capacity limits, a second live transaction
//! and the generation wrap.

use proptest::prelude::*;

use drtm_htm::{vtime, Abort, HtmConfig, Region, LINE_SIZE};

#[derive(Debug, Clone)]
enum Op {
    Read { offset: usize, len: usize },
    Write { offset: usize, data: Vec<u8> },
}

/// A non-transactional operation, run before a transaction of a sequence.
#[derive(Debug, Clone)]
enum Nt {
    Read {
        offset: usize,
        len: usize,
    },
    Write {
        offset: usize,
        data: Vec<u8>,
    },
    /// A CAS on an aligned word that expects the word's value if `hit`,
    /// else `miss` (which then fails unless it happens to match).
    Cas {
        word: usize,
        hit: bool,
        miss: u64,
        new: u64,
    },
    ReadU64 {
        word: usize,
    },
}

/// How a transaction of a sequence ends.
#[derive(Debug, Clone, Copy)]
enum End {
    Commit,
    Abort,
    Drop,
}

const SIZE: usize = 1024;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..SIZE - 96, 1usize..96).prop_map(|(offset, len)| Op::Read { offset, len }),
        (0usize..SIZE - 96, proptest::collection::vec(any::<u8>(), 1..96))
            .prop_map(|(offset, data)| Op::Write { offset, data }),
    ]
}

/// Unaligned spans up to 160 bytes long, so most straddle words and
/// many straddle lines; CASes and `u64` reads on any word.
fn nt() -> impl Strategy<Value = Nt> {
    prop_oneof![
        (0usize..SIZE - 160, 1usize..160).prop_map(|(offset, len)| Nt::Read { offset, len }),
        (0usize..SIZE - 160, proptest::collection::vec(any::<u8>(), 1..160))
            .prop_map(|(offset, data)| Nt::Write { offset, data }),
        (0usize..SIZE / 8, any::<bool>(), any::<u64>(), any::<u64>())
            .prop_map(|(word, hit, miss, new)| Nt::Cas { word, hit, miss, new }),
        (0usize..SIZE / 8).prop_map(|word| Nt::ReadU64 { word }),
    ]
}

fn txn() -> impl Strategy<Value = (Vec<Nt>, Vec<Op>, End)> {
    let end = prop_oneof![Just(End::Commit), Just(End::Abort), Just(End::Drop)];
    (proptest::collection::vec(nt(), 0..6), proptest::collection::vec(op(), 1..40), end)
}

/// Runs `nt` on the region and the model, checking what it returns.
fn apply_nt(region: &Region, model: &mut [u8], nt: &Nt) {
    match nt {
        Nt::Read { offset, len } => {
            let mut got = vec![0u8; *len];
            region.read_nt(*offset, &mut got);
            prop_assert_eq!(&got[..], &model[*offset..*offset + *len]);
        }
        Nt::Write { offset, data } => {
            region.write_nt(*offset, data);
            model[*offset..*offset + data.len()].copy_from_slice(data);
        }
        Nt::Cas { word, hit, miss, new } => {
            let bytes = &mut model[word * 8..word * 8 + 8];
            let cur = u64::from_le_bytes(bytes.try_into().unwrap());
            let expected = if *hit { cur } else { *miss };
            prop_assert_eq!(region.cas_u64_nt(word * 8, expected, *new), cur);
            if expected == cur {
                bytes.copy_from_slice(&new.to_le_bytes());
            }
        }
        Nt::ReadU64 { word } => {
            let bytes = &model[word * 8..word * 8 + 8];
            prop_assert_eq!(
                region.read_u64_nt(word * 8),
                u64::from_le_bytes(bytes.try_into().unwrap())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Reads inside a transaction see earlier writes of the same
    /// transaction overlaid on the memory image its predecessors left,
    /// a commit publishes exactly the final overlay, and a transaction
    /// that aborts or is dropped publishes nothing — and leaves nothing
    /// behind for the next one on the thread to trip over. The
    /// non-transactional operations before each transaction read and
    /// write the same image, byte for byte and word for word.
    #[test]
    fn txn_matches_model(init in proptest::collection::vec(any::<u8>(), SIZE),
                         txns in proptest::collection::vec(txn(), 1..6)) {
        let region = Region::new(SIZE);
        region.write_nt(0, &init);
        let mut model = init;

        let cfg = HtmConfig { read_capacity_lines: 1 << 12, write_capacity_lines: 1 << 12, ..Default::default() };
        for (nts, ops, end) in &txns {
            for nt in nts {
                apply_nt(&region, &mut model, nt);
            }
            let mut staged = model.clone();
            let mut txn = region.begin(&cfg);
            for o in ops {
                match o {
                    Op::Read { offset, len } => {
                        let mut got = vec![0u8; *len];
                        txn.read(*offset, &mut got).expect("no conflicts possible");
                        prop_assert_eq!(&got[..], &staged[*offset..*offset + *len]);
                    }
                    Op::Write { offset, data } => {
                        txn.write(*offset, data).expect("within capacity");
                        staged[*offset..*offset + data.len()].copy_from_slice(data);
                    }
                }
            }
            match end {
                End::Commit => {
                    txn.commit().expect("single-threaded commit succeeds");
                    model = staged;
                }
                End::Abort => prop_assert_eq!(txn.abort(7), Abort::Explicit(7)),
                End::Drop => drop(txn),
            }
            let mut out = vec![0u8; SIZE];
            region.read_nt(0, &mut out);
            prop_assert_eq!(&out, &model);
        }
    }

    /// A non-transactional store to any line the transaction touched
    /// aborts the commit; untouched lines never do.
    #[test]
    fn strong_atomicity_is_line_accurate(
        touch in 0usize..(SIZE / 64),
        poke in 0usize..(SIZE / 64),
        write_txn in any::<bool>(),
    ) {
        let region = Region::new(SIZE);
        let cfg = HtmConfig::default();
        let mut txn = region.begin(&cfg);
        if write_txn {
            txn.write_u64(touch * 64, 1).unwrap();
        } else {
            txn.read_u64(touch * 64).unwrap();
        }
        region.write_u64_nt(poke * 64 + 8, 0xAA); // same line iff poke == touch
        let result = txn.commit();
        if poke == touch {
            prop_assert_eq!(result, Err(Abort::Conflict));
        } else {
            prop_assert!(result.is_ok());
        }
    }

    /// Capacity accounting is exact, at a handful of lines and at the
    /// default limit (which the line table has to grow twice to hold): a
    /// transaction writing exactly the limit commits every line; one
    /// more line aborts with `Capacity`, while lines already staged stay
    /// writable.
    #[test]
    fn write_capacity_is_exact(
        limit in prop_oneof![1usize..12, Just(HtmConfig::default().write_capacity_lines)],
        over in any::<bool>(),
    ) {
        let region = Region::new(LINE_SIZE * (limit + 1));
        let cfg = HtmConfig { write_capacity_lines: limit, ..Default::default() };
        let mut txn = region.begin(&cfg);
        for i in 0..limit {
            txn.write_u64(i * LINE_SIZE, i as u64 + 1).expect("within limit");
        }
        if over {
            prop_assert_eq!(txn.write_u64(limit * LINE_SIZE, 1), Err(Abort::Capacity));
            txn.write_u64(8, 77).expect("line 0 is already in the write set");
            prop_assert_eq!(txn.read_u64(8), Ok(77));
        }
        txn.commit().expect("single-threaded commit succeeds");
        for i in 0..limit {
            prop_assert_eq!(region.read_u64_nt(i * LINE_SIZE), i as u64 + 1);
        }
        prop_assert_eq!(region.read_u64_nt(limit * LINE_SIZE), 0);
    }
}

/// A read set ten times the line table's first size: every line is
/// still found after the table has grown under it (staged writes
/// included), the capacity limit still counts distinct lines exactly,
/// and validation still covers every one of them.
#[test]
fn read_set_outgrows_the_table() {
    const LINES: usize = 1_300;
    let region = Region::new(LINES * LINE_SIZE);
    for i in 0..LINES {
        region.write_u64_nt(i * LINE_SIZE, i as u64);
    }
    let staged = |i: usize| if i.is_multiple_of(7) { i as u64 + 10_000 } else { i as u64 };
    let cfg = HtmConfig { read_capacity_lines: LINES - 1, ..Default::default() };

    let mut txn = region.begin(&cfg);
    for i in 0..LINES - 1 {
        assert_eq!(txn.read_u64(i * LINE_SIZE), Ok(i as u64));
        if i.is_multiple_of(7) {
            txn.write_u64(i * LINE_SIZE, staged(i)).unwrap();
        }
    }
    assert_eq!(txn.read_u64((LINES - 1) * LINE_SIZE), Err(Abort::Capacity));
    for i in 0..LINES - 1 {
        assert_eq!(txn.read_u64(i * LINE_SIZE), Ok(staged(i)), "line {i} re-read");
    }
    txn.commit().expect("nothing interfered");
    for i in 0..LINES - 1 {
        assert_eq!(region.read_u64_nt(i * LINE_SIZE), staged(i));
    }

    // Whichever line a non-transactional store hits — first in the
    // table, or entered after it grew — the commit must notice.
    for poked in [0, 127, 128, 700, LINES - 2] {
        let mut txn = region.begin(&cfg);
        for i in 0..LINES - 1 {
            txn.read_u64(i * LINE_SIZE).unwrap();
        }
        region.write_u64_nt(poked * LINE_SIZE + 8, 1);
        assert_eq!(txn.commit(), Err(Abort::Conflict), "store to line {poked}");
    }
}

/// Two transactions live on one thread keep separate sets: neither
/// sees the other's staged bytes, both commit when they are disjoint,
/// and the thread's next transaction starts clean whichever descriptor
/// it inherits.
#[test]
fn two_live_transactions_on_one_thread() {
    let region = Region::new(16 * LINE_SIZE);
    let cfg = HtmConfig::default();
    for round in 1..=3u64 {
        let mut a = region.begin(&cfg);
        let mut b = region.begin(&cfg);
        for line in 0..8 {
            a.write_u64(line * LINE_SIZE, round).unwrap();
            b.write_u64((8 + line) * LINE_SIZE, round + 100).unwrap();
        }
        assert_eq!(b.read_u64(0), Ok(round - 1), "a's staged write is a's alone");
        assert_eq!(a.read_u64(0), Ok(round));
        // b read line 0 and a writes it: a first, and b must abort.
        a.commit().expect("a conflicts with nothing");
        assert_eq!(b.commit(), Err(Abort::Conflict));

        let mut c = region.begin(&cfg);
        assert_eq!(c.read_u64(8 * LINE_SIZE), Ok(0), "b published nothing");
        assert_eq!(c.read_u64(0), Ok(round));
        c.commit().expect("c starts with empty sets");
    }
}

/// The table is never cleared between transactions: a slot is live only
/// while its stamp equals the descriptor's generation. When the
/// generation counter wraps, a stamp from one whole cycle earlier
/// equals it again; such a slot must not come back to life with the
/// version it recorded then.
#[test]
fn stale_slots_stay_dead_across_a_generation_wrap() {
    let region = Region::new(64 * LINE_SIZE);
    let cfg = HtmConfig::default();
    let read_all = |round: u64| {
        let mut txn = region.begin(&cfg);
        for line in 0..64 {
            assert_eq!(txn.read_u64(line * LINE_SIZE), Ok(round), "line {line}");
        }
        txn.commit().expect("nothing interfered");
    };
    // The stamp is 16 bits wide, so a wrap is an everyday event that a
    // test can reach. Whether or not the counter skips a value when it
    // wraps, one of these distances lands a transaction on the
    // generation that stamped all 64 slots.
    for (round, distance) in [(0, u64::from(u16::MAX)), (1, u64::from(u16::MAX) + 1)] {
        read_all(round);
        for line in 0..64 {
            region.write_u64_nt(line * LINE_SIZE, round + 1); // every recorded version is now stale
        }
        // Empty transactions advance the generation and stamp nothing.
        for _ in 1..distance {
            region.begin(&cfg).commit().unwrap();
        }
        read_all(round + 1);
    }
}

/// The virtual cost of a region is its accesses and its commit, nothing
/// else: 16 lines read and written charge 16 · 2 accesses, and the
/// commit its base cost plus one access per dirty line.
#[test]
fn golden_cost_of_sixteen_lines() {
    let region = Region::new(16 * LINE_SIZE);
    let cfg = HtmConfig::default();
    let ((), ns) = vtime::measure(|| {
        let mut txn = region.begin(&cfg);
        for line in 0..16 {
            let v = txn.read_u64(line * LINE_SIZE).unwrap();
            txn.write_u64(line * LINE_SIZE, v + 1).unwrap();
        }
        txn.commit().unwrap();
    });
    assert_eq!(ns, 16 * 2 * 40 + 300 + 16 * 40, "2 220 ns at the default costs");
}
