//! The workspace's concurrency protocols, rewritten as checked models.
//!
//! Each model is a faithful miniature of a production protocol — the same
//! lock/atomic choreography, with bookkeeping shrunk until exhaustive (or
//! budget-capped) interleaving enumeration is tractable. Passing models
//! assert their invariant over every explored schedule; each is paired
//! with a `*-seeded-bug` variant that re-introduces a specific protocol
//! violation and **must** be caught — proving the checker can see the bug
//! class, not just that the fixed code is quiet.
//!
//! | model | production counterpart |
//! |---|---|
//! | `no-stale-quote` | `Broker::set_pricing` epoch bump vs `ShardSet::quote` cache serve (PR 5) |
//! | `rw-atomicity` | `set_pricing` vs `Broker::quote`'s price read: reader-writer atomicity |
//! | `claim-exactly-once` | `claim_map` work-claiming ledger (bit-identical parallel revenue) |
//! | `pending-bounds` | pending-quote table capacity eviction in `ShardSet` |

use crate::sync::{AtomicU64, Mutex, RwLock};
use crate::thread;
use crate::{explore, replay, Config, Report};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Price floor used by the epoch models; prices encode the epoch that
/// produced them (`price - BASE == epoch`), so consistency is checkable
/// from a served pair alone. Mirrors the trick in
/// `crates/server/tests/epoch_races.rs`.
const BASE: u64 = 10_000;

/// The no-stale-quote protocol from PR 5: a repricer updates pricing under
/// the write lock and bumps the monotone epoch *inside* that critical
/// section; quoters serve from a per-bundle cache only when the cached
/// entry's epoch equals the epoch they observed at request start, filling
/// misses from an atomically-consistent `(price, epoch)` snapshot taken
/// under the read lock.
///
/// Invariant: every served pair satisfies `price == BASE + epoch`.
///
/// With `bug_epoch_outside_lock`, the repricer bumps the epoch *before*
/// taking the write lock — the intentionally seeded PR 6 bug. A quoter
/// scheduled between bump and price-write then snapshots
/// `(old price, new epoch)` and serves a stale quote.
fn no_stale_quote(
    quoters: usize,
    quotes_per: usize,
    repricings: usize,
    bug_epoch_outside_lock: bool,
) -> impl Fn() + Send + Sync {
    move || {
        let pricing = Arc::new(RwLock::new(BASE));
        let epoch = Arc::new(AtomicU64::new(0));
        let cache = Arc::new(Mutex::new(None::<(u64, u64)>));
        let mut handles = Vec::new();
        {
            let pricing = Arc::clone(&pricing);
            let epoch = Arc::clone(&epoch);
            handles.push(thread::spawn(move || {
                for _ in 0..repricings {
                    if bug_epoch_outside_lock {
                        // BUG: visible before the price it describes.
                        epoch.fetch_add(1, Ordering::SeqCst);
                        *pricing.write() += 1;
                    } else {
                        let mut p = pricing.write();
                        *p += 1;
                        epoch.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for _ in 0..quoters {
            let pricing = Arc::clone(&pricing);
            let epoch = Arc::clone(&epoch);
            let cache = Arc::clone(&cache);
            handles.push(thread::spawn(move || {
                for _ in 0..quotes_per {
                    let seen = epoch.load(Ordering::SeqCst);
                    let hit = match *cache.lock() {
                        Some((p, e)) if e == seen => Some((p, e)),
                        _ => None,
                    };
                    let (price, at) = match hit {
                        Some(pair) => pair,
                        None => {
                            // versioned_price: epoch read under the read
                            // lock, so the pair is consistent — unless the
                            // bump escaped the write lock.
                            let snap = {
                                let p = pricing.read();
                                (*p, epoch.load(Ordering::SeqCst))
                            };
                            let mut c = cache.lock();
                            if c.is_none_or(|(_, e)| e < snap.1) {
                                *c = Some(snap);
                            }
                            snap
                        }
                    };
                    assert!(
                        price == BASE + at,
                        "stale quote served: price {price} claims epoch {at} \
                         (expected price {})",
                        BASE + at
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// Reader-writer atomicity of `set_pricing` vs `Broker::quote`'s price
/// read: a writer mutates a two-part pricing state under the write lock;
/// readers snapshot both parts under the read lock and must never observe a
/// half-applied update. The parts are atomics so the model has yield points *inside*
/// the critical sections — the lock, not op indivisibility, must provide
/// the atomicity.
///
/// With `bug_unlocked_read`, readers skip the read lock (torn reads).
fn rw_atomicity(
    writes: usize,
    readers: usize,
    reads_per: usize,
    bug_unlocked_read: bool,
) -> impl Fn() + Send + Sync {
    move || {
        let gate = Arc::new(RwLock::new(()));
        let lo = Arc::new(AtomicU64::new(0));
        let hi = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        {
            let gate = Arc::clone(&gate);
            let lo = Arc::clone(&lo);
            let hi = Arc::clone(&hi);
            handles.push(thread::spawn(move || {
                for _ in 0..writes {
                    let _g = gate.write();
                    lo.fetch_add(1, Ordering::SeqCst);
                    hi.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for _ in 0..readers {
            let gate = Arc::clone(&gate);
            let lo = Arc::clone(&lo);
            let hi = Arc::clone(&hi);
            handles.push(thread::spawn(move || {
                for _ in 0..reads_per {
                    let (a, b) = if bug_unlocked_read {
                        // BUG: snapshot without the read lock.
                        (lo.load(Ordering::SeqCst), hi.load(Ordering::SeqCst))
                    } else {
                        let _g = gate.read();
                        (lo.load(Ordering::SeqCst), hi.load(Ordering::SeqCst))
                    };
                    assert!(a == b, "torn pricing read: lo {a}, hi {b}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// The `claim_map` ledger from `qp-market`'s parallel revenue sweep:
/// workers claim the next unclaimed index under one mutex critical section
/// and record their result at that index. Invariant: each index is claimed
/// exactly once and the final cursor equals the item count.
///
/// With `bug_split_claim`, the read-cursor and advance-cursor steps run in
/// two separate critical sections — two workers can claim the same index.
fn claim_exactly_once(
    workers: usize,
    items: usize,
    bug_split_claim: bool,
) -> impl Fn() + Send + Sync {
    move || {
        // (cursor, per-index claim counts) — one lock, like `claim_map`.
        let ledger = Arc::new(Mutex::new((0usize, vec![0u32; items])));
        let mut handles = Vec::new();
        for _ in 0..workers {
            let ledger = Arc::clone(&ledger);
            handles.push(thread::spawn(move || loop {
                let idx = if bug_split_claim {
                    // BUG: check and advance in separate critical sections.
                    let cur = ledger.lock().0;
                    if cur >= items {
                        break;
                    }
                    ledger.lock().0 += 1;
                    cur
                } else {
                    let mut g = ledger.lock();
                    if g.0 >= items {
                        break;
                    }
                    let i = g.0;
                    g.0 += 1;
                    i
                };
                let mut g = ledger.lock();
                g.1[idx] += 1;
                let n = g.1[idx];
                assert!(n == 1, "index {idx} claimed {n} times");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let g = ledger.lock();
        assert!(
            g.1.iter().all(|&n| n == 1),
            "claim ledger not exactly-once: {:?}",
            g.1
        );
    }
}

/// The pending-quote table from `ShardSet::quote`: quoters draw unique ids
/// from an atomic counter and insert under the table mutex, evicting the
/// oldest entry first when at capacity. Invariants: the table never
/// exceeds its capacity and no id is ever inserted twice.
fn pending_bounds(quoters: usize, inserts_per: usize, cap: usize) -> impl Fn() + Send + Sync {
    move || {
        let next_id = Arc::new(AtomicU64::new(0));
        let pending = Arc::new(Mutex::new(BTreeMap::new()));
        let mut handles = Vec::new();
        for q in 0..quoters {
            let next_id = Arc::clone(&next_id);
            let pending = Arc::clone(&pending);
            handles.push(thread::spawn(move || {
                for _ in 0..inserts_per {
                    let id = next_id.fetch_add(1, Ordering::SeqCst) + 1;
                    let mut p = pending.lock();
                    if p.len() >= cap {
                        p.pop_first();
                    }
                    let prev = p.insert(id, q);
                    assert!(prev.is_none(), "quote id {id} issued twice");
                    assert!(
                        p.len() <= cap,
                        "pending table over capacity: {} > {cap}",
                        p.len()
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// One catalog entry: a named model plus whether the checker is *expected*
/// to find a counterexample (seeded-bug variants).
pub struct ModelSpec {
    /// Catalog name (stable; used by `--model` / `--replay`).
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub about: &'static str,
    /// True for seeded-bug variants: a clean report is a checker failure.
    pub expect_failure: bool,
    build: fn() -> Box<dyn Fn() + Send + Sync>,
}

impl ModelSpec {
    /// Explores the model under `cfg` and returns the raw report.
    pub fn check(&self, cfg: &Config) -> Report {
        explore(cfg, (self.build)())
    }

    /// Re-executes one schedule of this model; `Err` is the reproduced
    /// failure.
    pub fn replay(&self, schedule: &[crate::Tid]) -> Result<(), crate::Failure> {
        replay(schedule, (self.build)())
    }
}

/// The full model catalog: the four core invariants plus their seeded-bug
/// counterparts. Seeded variants use minimal sizes so depth-first search
/// reaches the buggy interleaving within a smoke budget.
pub fn catalog() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "no-stale-quote",
            about: "epoch bump under write lock vs cached-quote serve (PR 5 protocol)",
            expect_failure: false,
            build: || Box::new(no_stale_quote(2, 2, 2, false)),
        },
        ModelSpec {
            name: "no-stale-quote-seeded-bug",
            about: "epoch bump moved OUTSIDE the write lock — must be caught",
            expect_failure: true,
            build: || Box::new(no_stale_quote(1, 1, 1, true)),
        },
        ModelSpec {
            name: "rw-atomicity",
            about: "set_pricing vs Broker::quote price read: reader-writer snapshot atomicity",
            expect_failure: false,
            build: || Box::new(rw_atomicity(2, 2, 2, false)),
        },
        ModelSpec {
            name: "rw-atomicity-seeded-bug",
            about: "reader skips the read lock (torn snapshot) — must be caught",
            expect_failure: true,
            build: || Box::new(rw_atomicity(1, 1, 1, true)),
        },
        ModelSpec {
            name: "claim-exactly-once",
            about: "claim_map ledger: every index claimed exactly once",
            expect_failure: false,
            build: || Box::new(claim_exactly_once(2, 4, false)),
        },
        ModelSpec {
            name: "claim-exactly-once-seeded-bug",
            about: "cursor check/advance split across critical sections — must be caught",
            expect_failure: true,
            build: || Box::new(claim_exactly_once(2, 1, true)),
        },
        ModelSpec {
            name: "pending-bounds",
            about: "pending-quote table stays within capacity, ids unique",
            expect_failure: false,
            build: || Box::new(pending_bounds(3, 2, 2)),
        },
    ]
}

/// The verdict of checking one catalog model: the report plus whether the
/// outcome matches the expectation (seeded bugs must fail; core models
/// must not).
pub struct ModelVerdict {
    /// The catalog entry's name.
    pub name: &'static str,
    /// Whether a counterexample was expected.
    pub expect_failure: bool,
    /// The exploration report.
    pub report: Report,
    /// For caught seeded bugs: whether replaying the reported schedule
    /// reproduced the same failure.
    pub replay_confirmed: Option<bool>,
}

impl ModelVerdict {
    /// True when the outcome matches the expectation (and, for seeded
    /// bugs, the counterexample replays).
    pub fn ok(&self) -> bool {
        match (&self.report.failure, self.expect_failure) {
            (None, false) => true,
            (Some(_), true) => self.replay_confirmed == Some(true),
            _ => false,
        }
    }
}

/// Checks every catalog model under `cfg`, replaying any counterexample to
/// confirm reproducibility.
pub fn run_catalog(cfg: &Config) -> Vec<ModelVerdict> {
    catalog()
        .into_iter()
        .map(|spec| {
            let report = spec.check(cfg);
            let replay_confirmed = report.failure.as_ref().map(|f| {
                spec.replay(&f.schedule)
                    .err()
                    .is_some_and(|r| r.message == f.message)
            });
            ModelVerdict {
                name: spec.name,
                expect_failure: spec.expect_failure,
                report,
                replay_confirmed,
            }
        })
        .collect()
}
