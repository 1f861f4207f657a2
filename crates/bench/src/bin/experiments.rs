//! Print every EXPERIMENTS.md table, then check the two timing claims
//! the tables carry.
//!
//! ```sh
//! cargo run -p bench --bin experiments --release
//! ```
//!
//! Each table is printed in the document's markdown layout behind its
//! `<!-- experiments: NAME -->` marker, ready to paste. The counter
//! cells are pinned by `tests/experiments_doc.rs`; the time cells are
//! this run's.

fn main() {
    let e = bench::experiments(true);
    for table in &e.tables {
        println!("{table}");
    }

    // The VM earns its place over the tree walker on the paper's
    // 800-transition LAPD.
    println!(
        "LAPD-800: the VM runs {:.1}x the tree walker's transitions/sec",
        e.lapd800_speedup
    );
    assert!(
        e.lapd800_speedup >= 3.0,
        "expected the VM at >=3x the tree walker on LAPD-800, got {:.2}x",
        e.lapd800_speedup
    );

    // Four workers must scale where the host has the cores; on fewer
    // cores they time-slice, and the bound is on coordination overhead.
    let wall = |n: usize| {
        e.mdfs_wall
            .iter()
            .find(|&&(w, _)| w == n)
            .map(|&(_, s)| s)
            .expect("the worker row ran")
    };
    let speedup = wall(1) / wall(4);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "on-line MDFS: 4 workers run {speedup:.2}x one worker's transitions/sec on {cores} core(s)"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.7,
            "expected >=1.7x at 4 workers on {cores} cores, got {speedup:.2}x"
        );
    } else {
        assert!(
            speedup >= 1.0 / 1.6,
            "4-worker wall time must stay under 1.6x one worker's on {cores} core(s), got {:.2}x",
            1.0 / speedup
        );
    }
}
