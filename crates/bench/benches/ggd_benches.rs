//! Criterion micro- and macro-benchmarks:
//!
//! * dependency-vector merge and closure reconstruction (the per-message
//!   cost of the causal engine), over a site-less log and over the dense
//!   local plus ordered remote layout the engine uses,
//! * one heap's `take_delta` over a removal window and the grow-only window
//!   that undoes it, under a global root whose tree holds 16 or 256
//!   remotes,
//! * the paper-example scenario end to end,
//! * the E3 list-collapse scenario for a representative k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ggd_bench::run_causal;
use ggd_causal::DkLog;
use ggd_heap::{ObjRef, SiteHeap};
use ggd_mutator::workloads;
use ggd_types::{DependencyVector, GlobalAddr, SiteId, Timestamp, VertexId};

fn vector_of(size: usize, offset: u64) -> DependencyVector {
    (0..size)
        .map(|i| {
            (
                VertexId::object(i as u32, 1),
                Timestamp::created(i as u64 + offset),
            )
        })
        .collect()
}

fn bench_vector_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector");
    for size in [8usize, 64, 256] {
        let a = vector_of(size, 1);
        let b = vector_of(size, 2);
        group.bench_with_input(BenchmarkId::new("merge", size), &size, |bencher, _| {
            bencher.iter(|| a.merged_with(&b));
        });
        // The in-place path the engine hits: same key set, newer stamps —
        // no reallocation, a two-pointer walk over the sorted entries.
        group.bench_with_input(
            BenchmarkId::new("merge_in_place", size),
            &size,
            |bencher, _| {
                bencher.iter(|| {
                    let mut target = a.clone();
                    target.merge(&b);
                    target
                });
            },
        );
        // Disjoint key sets: the rebuild path (one exact-size allocation).
        let disjoint: DependencyVector = (0..size)
            .map(|i| {
                (
                    VertexId::object(1000 + i as u32, 1),
                    Timestamp::created(i as u64 + 1),
                )
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("merge_disjoint", size),
            &size,
            |bencher, _| {
                bencher.iter(|| {
                    let mut target = a.clone();
                    target.merge(&disjoint);
                    target
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("dominates", size), &size, |bencher, _| {
            bencher.iter(|| b.dominates(&a));
        });
        group.bench_with_input(
            BenchmarkId::new("causal_order", size),
            &size,
            |bencher, _| {
                bencher.iter(|| a.causal_order(&b));
            },
        );
    }
    // The engine's commonest vectors fit the inline buffer: no allocation
    // at all for construct + merge at this size.
    group.bench_function("singleton_merge_inline", |bencher| {
        let single = DependencyVector::singleton(VertexId::object(1, 1), Timestamp::created(3));
        bencher.iter(|| {
            let mut v = DependencyVector::singleton(VertexId::object(2, 1), Timestamp::created(1));
            v.merge(&single);
            v
        });
    });
    group.finish();
}

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure");
    for chain in [8u64, 64, 256] {
        // Every vertex of the chain is another site's: all rows ordered.
        let mut log = DkLog::new(SiteId::new(u32::MAX));
        for i in 0..chain {
            let this = VertexId::object(i as u32, 1);
            let next = VertexId::object(i as u32 + 1, 1);
            log.row_mut(next).set(this, Timestamp::created(i + 1));
            log.row_mut(this).set(this, Timestamp::created(i + 1));
        }
        let subject = VertexId::object(chain as u32, 1);
        group.bench_with_input(BenchmarkId::new("chain", chain), &chain, |bencher, _| {
            bencher.iter(|| log.closure(subject));
        });

        // The engine's layout: the site's own objects in the dense table,
        // every other vertex in the ordered map, the chain alternating
        // between the two.
        let site = SiteId::new(0);
        let vertex = |i: u64| {
            if i % 2 == 0 {
                VertexId::object(site.index(), i + 1)
            } else {
                VertexId::object(1 + (i % 7) as u32, i)
            }
        };
        let mut log = DkLog::new(site);
        for i in 0..chain {
            log.row_mut(vertex(i + 1))
                .set(vertex(i), Timestamp::created(i + 1));
            log.row_mut(vertex(i))
                .set(vertex(i), Timestamp::created(i + 1));
        }
        let subject = vertex(chain);
        group.bench_with_input(
            BenchmarkId::new("mixed_chain", chain),
            &chain,
            |bencher, _| {
                bencher.iter(|| log.closure(subject));
            },
        );
    }
    group.finish();
}

fn bench_take_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("take_delta");
    for remotes in [16u64, 256] {
        // A global root over one local holder per four distinct remotes;
        // the window cuts the first holder's first remote and puts it back.
        let mut heap = SiteHeap::new(SiteId::new(0));
        let root = heap.alloc();
        heap.register_global_root(root).unwrap();
        let mut holders = Vec::new();
        for i in 0..remotes {
            if i % 4 == 0 {
                let holder = heap.alloc();
                heap.add_ref(root, ObjRef::Local(holder)).unwrap();
                holders.push(holder);
            }
            let remote = ObjRef::Remote(GlobalAddr::new(1 + (i % 8) as u32, 1 + i));
            heap.add_ref(holders[holders.len() - 1], remote).unwrap();
        }
        let _ = heap.take_delta();
        let holder = holders[0];
        let cut = ObjRef::Remote(GlobalAddr::new(1, 1));
        group.bench_with_input(
            BenchmarkId::new("unlink_relink", remotes),
            &remotes,
            |bencher, _| {
                bencher.iter(|| {
                    heap.remove_ref(holder, cut).unwrap();
                    let removal = heap.take_delta();
                    heap.add_ref(holder, cut).unwrap();
                    (removal, heap.take_delta())
                });
            },
        );
    }
    group.finish();
}

fn bench_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");
    group.sample_size(10);
    let paper = workloads::paper_example();
    group.bench_function("paper_example", |bencher| {
        bencher.iter(|| run_causal(&paper));
    });
    let list = workloads::doubly_linked_list(8);
    group.bench_function("list_collapse_k8", |bencher| {
        bencher.iter(|| run_causal(&list));
    });
    let ring = workloads::ring(8);
    group.bench_function("ring_collapse_k8", |bencher| {
        bencher.iter(|| run_causal(&ring));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vector_ops,
    bench_closure,
    bench_take_delta,
    bench_scenarios
);
criterion_main!(benches);
