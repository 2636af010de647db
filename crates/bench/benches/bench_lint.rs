//! Analyzer benchmark: one full-workspace `rcr-lint` run — tokenize,
//! lexical rules and semantic extraction over every `src/**/*.rs`, then
//! the call graph, the inter-procedural passes and the baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use rcr_lint::lint_workspace;
use std::hint::black_box;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn bench_lint(c: &mut Criterion) {
    let root = workspace_root();
    let mut group = c.benchmark_group("lint");
    group.sample_size(10);
    group.bench_function("workspace", |b| {
        b.iter(|| black_box(lint_workspace(&root).expect("lint run")))
    });
    group.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
