//! The batched ROUTE path on both cache tiers: the flat lock-free slot
//! array (n ≤ 128) and the hashed shard maps (larger n). Every batched
//! reply must be byte-identical to the one-shot `render_route(route(..))`
//! at the same epoch, a second pass over the same pairs must be served
//! entirely from cache, and the engine window must open only for a
//! batch that computed a miss.

use std::sync::Arc;

use ftr_core::KernelRouting;
use ftr_graph::{gen, Node};
use ftr_serve::epoch::Epoch;
use ftr_serve::{proto, query, EngineWindow, EpochStore, RoutingSnapshot};

const BATCH: usize = 64;

/// Serves the kernel routing of `harary(k, n)` at an epoch with
/// `faults` applied.
fn faulted_epoch(k: usize, n: usize, faults: &[Node]) -> (RoutingSnapshot, Arc<Epoch>) {
    let g = gen::harary(k, n).unwrap();
    let kernel = KernelRouting::build(&g).unwrap();
    let snapshot = RoutingSnapshot::new(g, kernel.routing().clone()).unwrap();
    let store = EpochStore::new(&snapshot.engine().epoch_state());
    let mut state = snapshot.engine().epoch_state();
    for &v in faults {
        assert!(state.insert(snapshot.engine(), v));
    }
    store.publish(&state);
    let epoch = store.load();
    assert_eq!(epoch.faults().len(), faults.len());
    (snapshot, epoch)
}

/// Distinct ordered pairs `(x, y)`, `x != y`: every pair on small
/// graphs, a strided sample on large ones, each fault endpoint
/// included.
fn pairs(n: usize, stride: usize) -> Vec<(Node, Node)> {
    let mut out = Vec::new();
    for x in 0..n as Node {
        for y in 0..n as Node {
            if x != y && (x as usize * n + y as usize).is_multiple_of(stride) {
                out.push((x, y));
            }
        }
    }
    out
}

/// Runs one batch, checking that the sink sees every index once, in
/// order; returns the replies, hit flags and engine window.
fn run_batch(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    batch: &[(Node, Node)],
) -> (Vec<Arc<str>>, Vec<bool>, EngineWindow) {
    let mut replies = Vec::new();
    let mut hits = Vec::new();
    let window = query::route_batch(snapshot, epoch, batch, |i, reply, hit| {
        assert_eq!(i, replies.len(), "sink indices arrive in order");
        replies.push(reply);
        hits.push(hit);
    });
    assert_eq!(replies.len(), batch.len());
    (replies, hits, window)
}

fn check_tier(k: usize, n: usize, faults: &[Node], stride: usize) {
    let (snapshot, epoch) = faulted_epoch(k, n, faults);
    let all = pairs(n, stride);
    let mut detours = 0;
    let mut unreachable = 0;
    for batch in all.chunks(BATCH) {
        let (replies, hits, window) = run_batch(&snapshot, &epoch, batch);
        assert!(hits.iter().all(|&h| !h), "fresh pairs are misses");
        assert!(window.active(), "a batch with misses opens the window");
        assert!(window.start_nanos <= window.end_nanos);
        for (&(x, y), reply) in batch.iter().zip(&replies) {
            let oracle = proto::render_route(&query::route(&snapshot, &epoch, x, y).unwrap());
            assert_eq!(&**reply, oracle.as_str(), "ROUTE {x} {y} at n={n}");
            detours += usize::from(reply.starts_with("OK DETOUR"));
            unreachable += usize::from(&**reply == "OK UNREACHABLE");
        }
    }
    assert!(detours > 0, "n={n}: the faults must force some detours");
    assert!(unreachable > 0, "n={n}: faulty endpoints are unreachable");

    // Second pass over the same pairs: all hits, the same bytes, and
    // the engine never runs.
    for batch in all.chunks(BATCH) {
        let (replies, hits, window) = run_batch(&snapshot, &epoch, batch);
        assert!(hits.iter().all(|&h| h), "n={n}: second pass must hit");
        assert!(!window.active(), "an all-hit batch leaves the window shut");
        for (&(x, y), reply) in batch.iter().zip(&replies) {
            let oracle = proto::render_route(&query::route(&snapshot, &epoch, x, y).unwrap());
            assert_eq!(&**reply, oracle.as_str());
        }
    }

    // A mixed batch (cached pairs plus one never seen) opens the window
    // for its single miss.
    let fresh = (0..n as Node)
        .flat_map(|x| (0..n as Node).map(move |y| (x, y)))
        .find(|&(x, y)| x != y && !all.contains(&(x, y)))
        .expect("the sample leaves some pair out");
    let mixed = [all[0], fresh, all[1]];
    let (replies, hits, window) = run_batch(&snapshot, &epoch, &mixed);
    assert_eq!(hits, vec![true, false, true]);
    assert!(window.active());
    let oracle = proto::render_route(&query::route(&snapshot, &epoch, fresh.0, fresh.1).unwrap());
    assert_eq!(&*replies[1], oracle.as_str());
}

#[test]
fn flat_tier_batches_match_one_shot_routes() {
    // harary(5, 24): n ≤ 128, ROUTE replies live in the flat slot array.
    check_tier(5, 24, &[3, 17], 2);
}

#[test]
fn hashed_tier_batches_match_one_shot_routes() {
    // harary(4, 256): n > 128, ROUTE replies live in the shard maps.
    check_tier(4, 256, &[5, 130, 201], 37);
}
