//! Bench: regenerates every paper table and figure end-to-end (reduced
//! scale) through `tsc_experiments::run_by_id`, one benchmark group per
//! artifact and one function per experiment id, so filters such as
//! `fig11` or `table2` select the same rows as before.

use criterion::{criterion_group, criterion_main, Criterion};
use tsc_experiments::{run_by_id, ExpOptions};

/// `(group, experiment ids)` in artifact order.
const GROUPS: [(&str, &[&str]); 14] = [
    ("fig2", &["fig2"]),
    ("fig3", &["fig3"]),
    ("fig4", &["fig4"]),
    ("fig5", &["fig5"]),
    ("fig6", &["fig6"]),
    ("fig7", &["fig7"]),
    ("fig8", &["fig8"]),
    ("fig9", &["fig9a", "fig9b", "fig9c"]),
    ("fig10", &["fig10"]),
    ("fig11", &["fig11a", "fig11b", "fig11c", "fig11d"]),
    ("fig12", &["fig12"]),
    ("table1", &["table1"]),
    ("table2", &["table2"]),
    ("baseline_ablation", &["baseline", "ablation"]),
];

fn bench(c: &mut Criterion) {
    for (group, ids) in GROUPS {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        for &id in ids {
            g.bench_function(id, |b| {
                b.iter(|| {
                    let r = run_by_id(
                        id,
                        ExpOptions {
                            seed: 42,
                            full: false,
                        },
                    )
                    .expect("known id");
                    std::hint::black_box(r.metrics.len())
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
