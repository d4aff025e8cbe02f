//! Property tests for the metrics aggregation invariants: histogram mass =
//! samples recorded, quantile monotonicity (p50 ≤ p95 ≤ max), worker time
//! accounting (busy + idle ≤ workers × wall), and merge additivity across
//! per-worker and per-shard partitions.

use proptest::prelude::*;
use txproc_sim::metrics::{Metrics, RuntimeMetrics, ShardMetrics, HIST_BUCKETS};

proptest! {
    #[test]
    fn histogram_mass_equals_sample_count(samples in proptest::collection::vec(0u64..=u64::MAX, 0..200)) {
        let mut rt = RuntimeMetrics::new(4);
        for ns in &samples {
            rt.record_delay_ns(*ns);
        }
        prop_assert_eq!(rt.sched_delay_ns.iter().sum::<u64>(), samples.len() as u64);
        prop_assert!(rt.invariant_violations(None).is_empty(),
            "violations: {:?}", rt.invariant_violations(None));
    }

    #[test]
    fn delay_quantiles_are_monotone(samples in proptest::collection::vec(0u64..1u64 << 40, 1..200)) {
        let mut rt = RuntimeMetrics::new(1);
        for ns in &samples {
            rt.record_delay_ns(*ns);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let resolved: Vec<u64> = qs
            .iter()
            .map(|&q| rt.delay_percentile_ns(q).expect("non-empty histogram"))
            .collect();
        for w in resolved.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", resolved);
        }
        let max = rt.delay_max_ns().unwrap();
        prop_assert!(*resolved.last().unwrap() <= max);
        // The resolved max is the true max at log2-bucket resolution: within
        // one power of two above the largest sample.
        let true_max = *samples.iter().max().unwrap();
        prop_assert!(max >= true_max.min(1u64 << (HIST_BUCKETS as u32)),
            "max edge {} below true max {}", max, true_max);
    }

    #[test]
    fn merge_preserves_mass_and_monotone_quantiles(
        a in proptest::collection::vec(0u64..1u64 << 30, 0..100),
        b in proptest::collection::vec(0u64..1u64 << 30, 0..100),
    ) {
        let mut ra = RuntimeMetrics::new(2);
        let mut rb = RuntimeMetrics::new(3);
        for ns in &a { ra.record_delay_ns(*ns); }
        for ns in &b { rb.record_delay_ns(*ns); }
        ra.merge(&rb);
        prop_assert_eq!(ra.sched_delay_ns.iter().sum::<u64>(), (a.len() + b.len()) as u64);
        prop_assert!(ra.invariant_violations(None).is_empty());
    }

    #[test]
    fn worker_time_accounting_holds_within_wall_budget(
        workers in 1u64..16,
        wall_ns in 1u64..1u64 << 40,
        busy_frac in 0.0f64..1.0,
        idle_frac in 0.0f64..1.0,
    ) {
        // Partition each worker's wall into busy/idle/untimed; the recorded
        // busy+idle can never exceed workers × wall.
        let split = busy_frac.min(idle_frac);
        let busy = (wall_ns as f64 * split) as u64;
        let idle = (wall_ns as f64 * (busy_frac.max(idle_frac) - split)) as u64;
        let mut rt = RuntimeMetrics::new(workers);
        rt.worker_busy_ns = busy * workers;
        rt.worker_idle_ns = idle * workers;
        prop_assert!(rt.invariant_violations(Some(wall_ns)).is_empty(),
            "violations: {:?}", rt.invariant_violations(Some(wall_ns)));
        // And the check actually fires when accounting is broken.
        let mut broken = rt.clone();
        broken.worker_busy_ns = workers * wall_ns * 2 + 10_000_000;
        prop_assert!(!broken.invariant_violations(Some(wall_ns)).is_empty());
    }

    #[test]
    fn shard_merge_totals_are_additive(
        shards_a in proptest::collection::vec((0u64..1000, 0u64..1000), 0..8),
        shards_b in proptest::collection::vec((0u64..1000, 0u64..1000), 0..8),
    ) {
        let build = |specs: &[(u64, u64)], base: u32| Metrics {
            shards: specs
                .iter()
                .enumerate()
                .map(|(i, &(processes, events))| ShardMetrics {
                    shard: base + i as u32,
                    processes,
                    events,
                })
                .collect(),
            ..Metrics::new()
        };
        let total = |m: &Metrics| {
            let add = |(p, e), s: &ShardMetrics| (p + s.processes, e + s.events);
            m.shards.iter().fold((0, 0), add)
        };
        let mut a = build(&shards_a, 0);
        let b = build(&shards_b, shards_a.len() as u32);
        let ((pa, ea), (pb, eb)) = (total(&a), total(&b));
        a.merge(&b);
        prop_assert_eq!(a.shards.len(), shards_a.len() + shards_b.len());
        prop_assert_eq!(total(&a), (pa + pb, ea + eb));
    }
}
