//! Thread-pool stress: hundreds of small rounds at 1/2/8 workers,
//! asserting bitwise-identical results every time. The lint's D3 rule
//! keeps raw threading out of the workspace; this test is the runtime
//! net that keeps the one sanctioned pool honest under exactly the
//! conditions where races surface — many short-lived scopes with
//! skewed, tiny workloads.

use fusion3d_par::Pool;

/// Deliberately order-sensitive f32 accumulation: any drift in chunk
/// geometry or reduction order changes the bits.
fn weight(range: std::ops::Range<usize>, salt: usize) -> f32 {
    range.map(|i| 1.0f32 / ((i + salt) as f32 + 1.0)).sum()
}

#[test]
fn hundreds_of_parallel_chunk_rounds_are_bitwise_stable() {
    for round in 0..300 {
        let len = 1 + (round * 37) % 211;
        let chunk = 1 + round % 17;
        let reference: Vec<u32> = Pool::with_threads(1)
            .parallel_chunks(len, chunk, |_, r| weight(r, round).to_bits())
            .to_vec();
        for threads in [2, 8] {
            let got: Vec<u32> = Pool::with_threads(threads)
                .parallel_chunks(len, chunk, |_, r| weight(r, round).to_bits())
                .to_vec();
            assert_eq!(reference, got, "round {round}, len {len}, threads {threads}");
        }
    }
}

#[test]
fn hundreds_of_sharded_task_rounds_are_bitwise_stable() {
    for round in 0..200 {
        let shards = 1 + round % 16;
        // One scratch per worker, as the trainer keeps them: a buffer
        // each task clears and refills, so results cannot depend on
        // which worker ran a task or what it ran before.
        let run = |threads: usize| -> (Vec<u32>, Vec<u32>) {
            let mut states = vec![0.0f32; shards];
            let mut workers = vec![Vec::<f32>::new(); threads];
            let out = Pool::with_threads(threads).run_tasks(
                &mut states,
                &mut workers,
                |index, acc, terms| {
                    terms.clear();
                    terms.extend((0..50).map(|i| 1.0 / ((index * 50 + i + round) as f32 + 1.0)));
                    for &t in terms.iter() {
                        *acc += t;
                    }
                    acc.to_bits()
                },
            );
            (out, states.iter().map(|s| s.to_bits()).collect())
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(reference, run(threads), "round {round}, shards {shards}");
        }
    }
}

#[test]
fn skewed_flat_map_rounds_preserve_order() {
    // Chunk costs skew heavily (quadratic tail) so stealing actually
    // rebalances; element order must still be exactly input order.
    for round in 0..100 {
        let len = 64 + round % 64;
        let chunks: Vec<Vec<usize>> = Pool::with_threads(8).parallel_chunks(len, 5, |index, r| {
            let spin = (index % 7) * (index % 7) * 40;
            let mut acc = 0usize;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            r.map(|v| v + acc.wrapping_mul(0)).collect()
        });
        assert_eq!(chunks.concat(), (0..len).collect::<Vec<usize>>(), "round {round}");
    }
}
